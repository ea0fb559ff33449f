#include "objstore/workload.h"

#include <algorithm>

#include "util/random.h"

namespace objrep {

Status GenerateWorkload(const WorkloadSpec& spec, const ComplexDatabase& db,
                        std::vector<Query>* out) {
  if (spec.num_top == 0 || spec.num_top > db.spec.num_parents) {
    return Status::InvalidArgument("num_top out of range");
  }
  // The negated comparisons also reject NaN.
  for (double p : {spec.pr_update, spec.hot_access_prob,
                   spec.hot_region_fraction}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument(
          "pr_update, hot_access_prob and hot_region_fraction must be in "
          "[0, 1]");
    }
  }
  Rng rng(spec.seed);
  out->clear();
  out->reserve(spec.num_queries);
  const uint32_t children_per_rel =
      db.spec.num_children_total() / db.spec.num_child_rels;
  for (uint32_t i = 0; i < spec.num_queries; ++i) {
    Query q;
    if (rng.Bernoulli(spec.pr_update)) {
      q.kind = Query::Kind::kUpdate;
      q.update_targets.reserve(spec.update_batch);
      for (uint32_t j = 0; j < spec.update_batch; ++j) {
        uint32_t r = static_cast<uint32_t>(rng.Uniform(db.spec.num_child_rels));
        uint32_t k = static_cast<uint32_t>(rng.Uniform(children_per_rel));
        q.update_targets.push_back(Oid{db.child_rels[r]->rel_id(), k});
      }
      q.new_ret1 = static_cast<int32_t>(rng.Uniform(1000000));
    } else {
      q.kind = Query::Kind::kRetrieve;
      q.num_top = spec.num_top;
      uint32_t span = db.spec.num_parents - spec.num_top + 1;
      if (spec.hot_access_prob > 0.0 &&
          rng.Bernoulli(spec.hot_access_prob)) {
        uint32_t hot_span = std::max<uint32_t>(
            1, static_cast<uint32_t>(span * spec.hot_region_fraction));
        q.lo_parent = static_cast<uint32_t>(rng.Uniform(hot_span));
      } else {
        q.lo_parent = static_cast<uint32_t>(rng.Uniform(span));
      }
      q.attr_index = static_cast<int>(rng.Uniform(3));
    }
    out->push_back(std::move(q));
  }
  return Status::OK();
}

}  // namespace objrep
