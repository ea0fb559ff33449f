// Multi-level complex objects ("multiple-dot" queries, paper §3).
//
// The paper's query
//     retrieve (group.members.name) ...
// explores one level of relationships; "queries involving more than two
// dots in the target list require more levels of relationships to be
// explored" — the VLSI hierarchy of §1 (cells -> paths -> rectangles) is
// the motivating shape. This module generalizes the OID representation to
// depth-d hierarchies and provides the recursive (DFS) and iterative
// (BFS / BFSNODUP) processing strategies for
//     retrieve (root.children. ... .children.attr).
//
// The paper claims (§5.1): "the benefits of BFSNODUP will increase with an
// increase in the number of levels explored. But our experiments have
// shown that the benefit so obtained is marginal at best."
// bench/multilevel_nodup measures exactly that.
#ifndef OBJREP_CORE_HIERARCHY_H_
#define OBJREP_CORE_HIERARCHY_H_

#include <memory>
#include <vector>

#include "core/strategy.h"
#include "objstore/oid.h"
#include "relational/table.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/status.h"

namespace objrep {

/// Shape of one depth-d hierarchy. Level 0 holds the roots; each object of
/// level l < depth-1 references a unit of `size_unit` objects of level
/// l+1, each unit shared by `use_factor` referencing objects (so
/// |level l+1| = |level l| * size_unit / use_factor). The last level holds
/// the leaves whose ret attributes the multi-dot query projects.
struct HierarchySpec {
  uint32_t num_roots = 10000;
  uint32_t depth = 3;            ///< number of levels (>= 2)
  uint32_t size_unit = 5;
  uint32_t use_factor = 5;
  uint32_t inner_tuple_bytes = 200;  ///< width of non-leaf tuples
  uint32_t leaf_tuple_bytes = 100;
  uint32_t buffer_pages = 100;
  uint64_t seed = 42;

  Status Validate() const;
  /// Cardinality of level `l`.
  uint32_t LevelSize(uint32_t l) const {
    uint64_t n = num_roots;
    for (uint32_t i = 0; i < l; ++i) n = n * size_unit / use_factor;
    return static_cast<uint32_t>(n);
  }
};

/// A generated hierarchy: one Table per level, all on one simulated disk.
class HierarchyDatabase {
 public:
  static Status Build(const HierarchySpec& spec,
                      std::unique_ptr<HierarchyDatabase>* out);

  /// retrieve (root.children^{depth-1}.attr) where lo <= root key < lo+n,
  /// depth-first ("recursion"): every subobject at every level is fetched
  /// by a random probe the moment its parent is expanded.
  Status RetrieveDfs(const Query& q, RetrieveResult* out);

  /// The same query breadth-first ("iteration"): per level, collect the
  /// next level's OIDs into a temporary, sort it (dropping duplicates when
  /// `dedup`), and merge join with that level's relation.
  Status RetrieveBfs(const Query& q, bool dedup, RetrieveResult* out);

  const HierarchySpec& spec() const { return spec_; }
  DiskManager* disk() { return disk_.get(); }
  uint64_t TotalPages() const { return disk_->num_pages(); }
  /// Ground truth for tests: unit id of each object at level l < depth-1.
  const std::vector<std::vector<uint32_t>>& unit_of_object() const {
    return unit_of_object_;
  }
  const std::vector<std::vector<std::vector<Oid>>>& units() const {
    return units_;
  }

 private:
  HierarchyDatabase() = default;

  Status ExpandDfs(uint32_t level, const Oid& oid, int attr_index,
                   RetrieveResult* out);

  HierarchySpec spec_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  Catalog catalog_;
  std::vector<Table*> levels_;
  // units_[l][u] = member OIDs (level l+1 objects) of unit u at level l.
  std::vector<std::vector<std::vector<Oid>>> units_;
  std::vector<std::vector<uint32_t>> unit_of_object_;
};

}  // namespace objrep

#endif  // OBJREP_CORE_HIERARCHY_H_
