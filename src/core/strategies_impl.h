// Internal declarations of the concrete strategies. Users go through
// MakeStrategy(); tests may include this header to poke at internals.
#ifndef OBJREP_CORE_STRATEGIES_IMPL_H_
#define OBJREP_CORE_STRATEGIES_IMPL_H_

#include <functional>

#include "core/strategy.h"
#include "relational/external_sort.h"
#include "relational/temp_file.h"

namespace objrep {
namespace internal {

/// Scans ParentRel over the retrieve's OID range, delivering each parent's
/// key and decoded unit (children OID list) in key order.
Status ScanParents(
    ComplexDatabase* db, const Query& q,
    const std::function<Status(uint32_t, const std::vector<Oid>&)>& fn);

/// DFS (paper §3.1 [1]): nested-loop fetch of every subobject.
class DfsStrategy : public Strategy {
 public:
  using Strategy::Strategy;
  Status ExecuteRetrieve(const Query& q, RetrieveResult* out) override;
};

/// BFS / BFSNODUP (paper §3.1 [2], [3]): temp + sort (+ dedup) + merge join.
class BfsStrategy : public Strategy {
 public:
  BfsStrategy(ComplexDatabase* db, bool dedup)
      : Strategy(db), dedup_(dedup) {}
  Status ExecuteRetrieve(const Query& q, RetrieveResult* out) override;

 private:
  bool dedup_;
};

/// DFSCACHE (paper §3.2): depth-first with outside caching and maintenance.
class DfsCacheStrategy : public Strategy {
 public:
  using Strategy::Strategy;
  Status ExecuteRetrieve(const Query& q, RetrieveResult* out) override;
  Status ExecuteUpdate(const Query& q) override;
};

/// DFSCLUST (paper §3.3): depth-first over ClusterRel; subobjects clustered
/// elsewhere are fetched through the ISAM index on ClusterRel.OID.
class DfsClustStrategy : public Strategy {
 public:
  using Strategy::Strategy;
  Status ExecuteRetrieve(const Query& q, RetrieveResult* out) override;
  Status ExecuteUpdate(const Query& q) override;
};

/// DFSCLUST + outside cache — the shaded box of Figure 2, implemented so
/// the paper's §3.4 claim ("does not make sense to combine") is testable.
/// The cluster scan has already paid for the local subobjects before the
/// cache can answer, so the cache can only save the *remote* fetches while
/// still charging full maintenance — exactly the redundancy the paper
/// predicts.
class DfsClustCacheStrategy : public Strategy {
 public:
  using Strategy::Strategy;
  Status ExecuteRetrieve(const Query& q, RetrieveResult* out) override;
  Status ExecuteUpdate(const Query& q) override;
};

/// BFS over the join index ([VALD86]): the qualifying objects' subobject
/// OIDs come from a contiguous scan of the dense (object, position) ->
/// OID relation, so the wide ParentRel tuples are never read.
class BfsJoinIndexStrategy : public Strategy {
 public:
  using Strategy::Strategy;
  Status ExecuteRetrieve(const Query& q, RetrieveResult* out) override;
};

/// BFS with an in-memory hash join (extension): build side = the
/// temporary's OIDs, probe side = one sequential ChildRel scan.
class BfsHashStrategy : public Strategy {
 public:
  using Strategy::Strategy;
  Status ExecuteRetrieve(const Query& q, RetrieveResult* out) override;
};

/// SMART (paper §5.3).
class SmartStrategy : public Strategy {
 public:
  SmartStrategy(ComplexDatabase* db, uint32_t threshold)
      : Strategy(db), threshold_(threshold) {}
  Status ExecuteRetrieve(const Query& q, RetrieveResult* out) override;
  Status ExecuteUpdate(const Query& q) override;

 private:
  uint32_t threshold_;
};

/// Shared by DFSCACHE and SMART's low-NumTop path: cache probe, then
/// materialize + insert on a miss.
Status CachedDepthFirstRetrieve(ComplexDatabase* db, const Query& q,
                                RetrieveResult* out);

/// Materializes one unit from ChildRel: raw records + projected attr
/// values, in unit order. Charges child I/O only.
Status MaterializeUnit(ComplexDatabase* db, const std::vector<Oid>& unit,
                       int attr_index, std::vector<std::string>* raw_records,
                       std::vector<int32_t>* values);

/// Decodes the projected attr of every record in a cached unit blob.
Status ProjectUnitBlob(ComplexDatabase* db, std::string_view blob,
                       int attr_index, std::vector<int32_t>* values);

}  // namespace internal
}  // namespace objrep

#endif  // OBJREP_CORE_STRATEGIES_IMPL_H_
