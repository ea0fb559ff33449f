// DFS (paper §3.1 [1]): "For each OID of 'elders', fetch the corresponding
// subobject from the relation person, and return its name."
//
// A nested-loop join between ParentRel and ChildRel: every subobject costs
// a random B-tree probe, which is why DFS loses to a merge join once
// NumTop grows past a few tens of objects (Figure 3).
#include "core/strategies_impl.h"

namespace objrep {
namespace internal {

Status DfsStrategy::ExecuteRetrieve(const Query& q, RetrieveResult* out) {
  CostBreakdown& cost = out->cost;
  const ThreadIoSnapshot start = CurrentThreadIo();
  OBJREP_RETURN_NOT_OK(ScanParents(
      db_, q,
      [&](uint32_t /*parent_key*/, const std::vector<Oid>& unit) -> Status {
        IoBracket child_bracket(&cost.child_io);
        OBJREP_RETURN_NOT_OK(MaterializeUnit(
            db_, unit, q.attr_index, /*raw_records=*/nullptr, &out->values));
        out->oids.insert(out->oids.end(), unit.begin(), unit.end());
        return Status::OK();
      }));
  uint64_t total = (CurrentThreadIo() - start).total();
  cost.par_io = total - cost.child_io;
  return Status::OK();
}

}  // namespace internal
}  // namespace objrep
