// Row shapes of the paper's four relations (§4):
//
//   ParentRel (OID, ret1, ret2, ret3, dummy, children)
//   ChildRel  (OID, ret1, ret2, ret3, dummy)
//   ClusterRel(cluster#, OID, ret1, ret2, ret3, dummy, children)
//   Cache     (hashkey, value)            -- a HashFile, not a Table
//
// ret1..3 are the integers the retrieve queries project; dummy pads each
// tuple to its target width (blank-compressed, so actual stored size is
// the target); children is the packed OID list of the parent's unit.
#ifndef OBJREP_OBJSTORE_ROWS_H_
#define OBJREP_OBJSTORE_ROWS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "objstore/oid.h"
#include "record/record.h"
#include "record/schema.h"
#include "util/status.h"

namespace objrep {

/// Field order in ParentRel and ClusterRel; ChildRel stops at kDummy.
enum ParentField : size_t {
  kParentOid = 0,
  kParentRet1 = 1,
  kParentRet2 = 2,
  kParentRet3 = 3,
  kParentDummy = 4,
  kParentChildren = 5,
};

enum ChildField : size_t {
  kChildOid = 0,
  kChildRet1 = 1,
  kChildRet2 = 2,
  kChildRet3 = 3,
  kChildDummy = 4,
};

enum ClusterField : size_t {
  kClusterNo = 0,
  kClusterOid = 1,
  kClusterRet1 = 2,
  kClusterRet2 = 3,
  kClusterRet3 = 4,
  kClusterDummy = 5,
  kClusterChildren = 6,
};

/// Builds the ParentRel schema with `dummy_width` chars of padding.
Schema MakeParentSchema(uint32_t dummy_width);
/// Builds the ChildRel schema.
Schema MakeChildSchema(uint32_t dummy_width);
/// Builds the ClusterRel schema (union of parent and child attributes).
Schema MakeClusterSchema(uint32_t dummy_width);

/// Dummy width that pads an encoded parent tuple to `target_bytes`.
uint32_t ParentDummyWidth(uint32_t target_bytes, uint32_t size_unit);
/// Dummy width that pads an encoded child tuple to `target_bytes`.
uint32_t ChildDummyWidth(uint32_t target_bytes);

struct ParentRow {
  Oid oid;
  int32_t ret1 = 0;
  int32_t ret2 = 0;
  int32_t ret3 = 0;
  std::vector<Oid> children;
};

struct ChildRow {
  Oid oid;
  int32_t ret1 = 0;
  int32_t ret2 = 0;
  int32_t ret3 = 0;
};

/// Values vector for a parent row under `MakeParentSchema(dummy_width)`.
std::vector<Value> ParentRowValues(const ParentRow& row,
                                   uint32_t dummy_width);
std::vector<Value> ChildRowValues(const ChildRow& row, uint32_t dummy_width);

/// Cluster rows: seq 0 is the parent record, seq >= 1 its claimed children.
std::vector<Value> ClusterParentValues(const ParentRow& row,
                                       uint32_t parent_dummy_width);
std::vector<Value> ClusterChildValues(const ChildRow& row,
                                      uint32_t child_dummy_width);

// In-place forms for bulk loads: each rewrites the per-row fields of
// `values`, a vector the matching function above made. The dummy payload
// (and a cluster child's empty children list) stays, so one vector and one
// payload serve a whole relation.

/// Parent `oid`'s row, whose unit is `children`.
void SetParentRowValues(const Oid& oid, const std::array<int32_t, 3>& rets,
                        const std::vector<Oid>& children,
                        std::vector<Value>* values);
void SetChildRowValues(const ChildRow& row, std::vector<Value>* values);
/// The cluster record of parent `oid` (its cluster# is its key).
void SetClusterParentValues(const Oid& oid,
                            const std::array<int32_t, 3>& rets,
                            const std::vector<Oid>& children,
                            std::vector<Value>* values);
/// Child `row` placed in cluster `cluster_no`.
void SetClusterChildValues(const ChildRow& row, uint64_t cluster_no,
                           std::vector<Value>* values);

/// Composite ClusterRel key: cluster number in the high bits, sequence
/// within the cluster in the low 12 bits. All records of one cluster are
/// therefore contiguous in the B-tree on cluster#.
inline uint64_t ClusterKey(uint64_t cluster_no, uint32_t seq) {
  return (cluster_no << 12) | seq;
}
inline uint64_t ClusterNoOf(uint64_t cluster_key) { return cluster_key >> 12; }
inline uint32_t ClusterSeqOf(uint64_t cluster_key) {
  return static_cast<uint32_t>(cluster_key & 0xfff);
}

/// Decoded-field helpers (projection fast paths used by the strategies).
Status DecodeChildRet(const Schema& schema, std::string_view raw,
                      int attr_index /* 0..2 */, int32_t* out);

}  // namespace objrep

#endif  // OBJREP_OBJSTORE_ROWS_H_
