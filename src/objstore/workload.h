// Query-sequence generation (paper §4).
//
// A sequence mixes retrieves
//     retrieve (ParentRel.children.attr) where val1 <= ParentRel.OID <= val2
// with attr drawn at random from {ret1, ret2, ret3}, and updates that
// modify a fixed number of ChildRel tuples in place. Pr(UPDATE) is the
// update fraction; NumTop = val2 - val1 + 1 objects per retrieve, with
// val1 uniform so "each complex object has an equal likelihood of being
// accessed".
#ifndef OBJREP_OBJSTORE_WORKLOAD_H_
#define OBJREP_OBJSTORE_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "objstore/database.h"
#include "objstore/oid.h"
#include "util/status.h"

namespace objrep {

struct Query {
  enum class Kind { kRetrieve, kUpdate };
  Kind kind = Kind::kRetrieve;

  // kRetrieve: parents [lo_parent, lo_parent + num_top) and the projected
  // ret attribute (0 => ret1, 1 => ret2, 2 => ret3).
  uint32_t lo_parent = 0;
  uint32_t num_top = 0;
  int attr_index = 0;

  // kUpdate: subobjects modified in place, and the new ret1 value.
  std::vector<Oid> update_targets;
  int32_t new_ret1 = 0;
};

struct WorkloadSpec {
  uint32_t num_queries = 100;   ///< sequence length (paper: ~1000 retrieves)
  double pr_update = 0.0;       ///< Pr(UPDATE)
  uint32_t num_top = 10;        ///< NumTop
  uint32_t update_batch = 5;    ///< ChildRel tuples modified per update
  uint64_t seed = 7;

  // Access skew (extension; the paper's accesses are uniform — "each
  // complex object has an equal likelihood of being accessed"). With
  // probability `hot_access_prob` a retrieve's range is drawn from the
  // first `hot_region_fraction` of ParentRel instead of uniformly.
  double hot_access_prob = 0.0;
  double hot_region_fraction = 0.1;
};

/// Generates a deterministic query sequence against `db`. InvalidArgument
/// unless 1 <= num_top <= |ParentRel| and pr_update, hot_access_prob and
/// hot_region_fraction are in [0, 1].
Status GenerateWorkload(const WorkloadSpec& spec, const ComplexDatabase& db,
                        std::vector<Query>* out);

}  // namespace objrep

#endif  // OBJREP_OBJSTORE_WORKLOAD_H_
