// Answer checking.
//
// Read-only workloads: sampled responses are compared with a direct,
// quiescent execution on the same database after the run (sequence-equal
// for depth-first strategies, multiset-equal for breadth-first ones).
//
// Update workloads: every UPDATE writes its unique marker. Each retrieved
// ret1 must be the subobject's initial value or the marker of a request
// that targets it (and, checked after the run, was sent); ret2/ret3 must
// be initial. After the run every subobject an acknowledged UPDATE wrote
// must hold the marker of an acknowledged UPDATE that targets it.
#ifndef OBJBENCH_CHECKS_H_
#define OBJBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "closed_loop.h"
#include "objstore/database.h"
#include "objstore/workload.h"

namespace objbench {

class Deployment;

class MarkerOracle {
 public:
  /// `truth` is the database as generated (its ground-truth tables are
  /// never modified by updates); both arguments must outlive the oracle.
  MarkerOracle(const objrep::ComplexDatabase& truth,
               const std::vector<objrep::Query>& requests);

  /// Thread-safe. Appends the serial of every marker read to `seen`.
  bool CheckRetrieve(const objrep::Query& q, const std::vector<int32_t>& values,
                     std::vector<uint32_t>* seen) const;

  /// Quiescent, after the run. Returns the number of violations.
  uint64_t CheckFinalState(objrep::ComplexDatabase* db, const LoopRecord& rec,
                           std::string* first_error) const;

 private:
  /// True when request serial `s` is an UPDATE that targets `packed_oid`.
  bool Targets(uint64_t serial, uint64_t packed_oid) const;
  int32_t InitialValue(const objrep::Oid& oid, int attr_index) const;

  const objrep::ComplexDatabase& truth_;
  const std::vector<objrep::Query>& requests_;
  std::unordered_map<uint32_t, size_t> rel_index_;  // rel id -> child_rows
};

/// Read-only check: re-executes every sample directly (with the device
/// latency switched off meanwhile) and compares. Returns the mismatches.
uint64_t CheckSamples(Deployment* d, const std::vector<objrep::Query>& requests,
                      const std::vector<Sample>& samples,
                      std::string* first_error);

}  // namespace objbench

#endif  // OBJBENCH_CHECKS_H_
