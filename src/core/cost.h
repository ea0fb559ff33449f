// Cost accounting for query execution.
//
// Figure 5 of the paper splits query cost into ParCost ("accessing the
// tuples of ParentRel") and ChildCost ("fetching the subobjects"); we track
// two further components, temporary-relation I/O (BFS temp formation and
// sorting) and Cache-relation I/O, and fold them into the two paper
// buckets when printing Figure 5 (temp/cache I/O are child-fetch costs).
#ifndef OBJREP_CORE_COST_H_
#define OBJREP_CORE_COST_H_

#include <cstdint>

#include "obs/io_context.h"

namespace objrep {

struct CostBreakdown {
  uint64_t par_io = 0;    ///< ParentRel / ClusterRel contiguous access
  uint64_t child_io = 0;  ///< subobject fetches (probes or merge join)
  uint64_t temp_io = 0;   ///< temporary formation + sorting (BFS family)
  uint64_t cache_io = 0;  ///< Cache-relation reads/inserts

  uint64_t total() const { return par_io + child_io + temp_io + cache_io; }
  /// The paper's ChildCost: everything spent obtaining subobject values.
  uint64_t child_cost() const { return child_io + temp_io + cache_io; }

  CostBreakdown& operator+=(const CostBreakdown& o) {
    par_io += o.par_io;
    child_io += o.child_io;
    temp_io += o.temp_io;
    cache_io += o.cache_io;
    return *this;
  }
};

/// RAII bracket attributing physical I/O to one breakdown bucket. It
/// counts the calling thread's own I/O (CurrentThreadIo), so a query run
/// beside other workers is charged its own pages only, and a bracket reads
/// a few thread-local slots instead of the volume's shared counters.
class IoBracket {
 public:
  explicit IoBracket(uint64_t* bucket)
      : bucket_(bucket), start_(CurrentThreadIo()) {}
  ~IoBracket() { Stop(); }

  IoBracket(const IoBracket&) = delete;
  IoBracket& operator=(const IoBracket&) = delete;

  void Stop() {
    if (bucket_ != nullptr) {
      *bucket_ += (CurrentThreadIo() - start_).total();
      bucket_ = nullptr;
    }
  }

 private:
  uint64_t* bucket_;
  ThreadIoSnapshot start_;
};

}  // namespace objrep

#endif  // OBJREP_CORE_COST_H_
