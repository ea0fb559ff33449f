#include "checks.h"

#include <algorithm>
#include <unordered_set>

#include "deployment.h"
#include "objstore/rows.h"

namespace objbench {

using objrep::Oid;
using objrep::Query;

MarkerOracle::MarkerOracle(const objrep::ComplexDatabase& truth,
                           const std::vector<Query>& requests)
    : truth_(truth), requests_(requests) {
  for (size_t r = 0; r < truth.child_rels.size(); ++r) {
    rel_index_[truth.child_rels[r]->rel_id()] = r;
  }
}

bool MarkerOracle::Targets(uint64_t serial, uint64_t packed_oid) const {
  const Query& q = requests_[serial % requests_.size()];
  if (q.kind != Query::Kind::kUpdate) return false;
  for (const Oid& t : q.update_targets) {
    if (t.Packed() == packed_oid) return true;
  }
  return false;
}

int32_t MarkerOracle::InitialValue(const Oid& oid, int attr_index) const {
  const objrep::ChildRow& row =
      truth_.child_rows[rel_index_.at(oid.rel)][oid.key];
  return attr_index == 0 ? row.ret1 : attr_index == 1 ? row.ret2 : row.ret3;
}

bool MarkerOracle::CheckRetrieve(const Query& q,
                                 const std::vector<int32_t>& values,
                                 std::vector<uint32_t>* seen) const {
  size_t pos = 0;
  for (uint32_t p = q.lo_parent; p < q.lo_parent + q.num_top; ++p) {
    for (const Oid& oid : truth_.units[truth_.unit_of_parent[p]]) {
      if (pos >= values.size()) return false;
      const int32_t v = values[pos++];
      if (v == InitialValue(oid, q.attr_index)) continue;
      if (q.attr_index != 0 || v >= 0) return false;
      const uint64_t serial = static_cast<uint64_t>(-static_cast<int64_t>(v)) - 1;
      if (!Targets(serial, oid.Packed())) return false;
      seen->push_back(static_cast<uint32_t>(serial));
    }
  }
  return pos == values.size();
}

uint64_t MarkerOracle::CheckFinalState(objrep::ComplexDatabase* db,
                                       const LoopRecord& rec,
                                       std::string* first_error) const {
  uint64_t violations = 0;
  auto fail = [&](const std::string& what) {
    if (violations++ == 0 && first_error->empty()) *first_error = what;
  };
  const std::unordered_set<uint32_t> sent(rec.sent_markers.begin(),
                                          rec.sent_markers.end());
  const std::unordered_set<uint32_t> acked(rec.acked_markers.begin(),
                                           rec.acked_markers.end());
  for (uint32_t s : rec.seen_markers) {
    if (sent.count(s) == 0) fail("retrieve read a marker never sent");
  }
  std::unordered_set<uint64_t> written;
  for (uint32_t s : rec.acked_markers) {
    for (const Oid& oid : requests_[s % requests_.size()].update_targets) {
      written.insert(oid.Packed());
    }
  }
  for (uint64_t packed : written) {
    const Oid oid = Oid::FromPacked(packed);
    objrep::Value field;
    objrep::Status st = db->ChildRelById(oid.rel)->GetField(
        oid.key, objrep::kChildRet1, &field);
    if (!st.ok()) {
      fail("final read failed: " + st.ToString());
      continue;
    }
    int32_t v = field.as_int32();
    if (db->mvcc != nullptr) {
      int32_t newest = 0;
      if (db->mvcc->ReadVisible(packed, db->mvcc->clock(), &newest)) {
        v = newest;
      }
    }
    const uint64_t serial =
        v < 0 ? static_cast<uint64_t>(-static_cast<int64_t>(v)) - 1 : 0;
    if (v >= 0 || acked.count(static_cast<uint32_t>(serial)) == 0 ||
        !Targets(serial, packed)) {
      fail("subobject " + std::to_string(packed) +
           " does not hold an acknowledged marker");
    }
  }
  return violations;
}

uint64_t CheckSamples(Deployment* d, const std::vector<Query>& requests,
                      const std::vector<Sample>& samples,
                      std::string* first_error) {
  const uint32_t latency = d->def().db.io_latency_us;
  d->SetDeviceLatency(0);
  uint64_t mismatches = 0;
  for (const Sample& sample : samples) {
    objrep::RetrieveResult direct;
    objrep::Status st = d->DirectRetrieve(requests[sample.request], &direct);
    std::vector<int32_t> got = sample.values;
    if (st.ok() && !d->def().ordered_results()) {
      std::sort(got.begin(), got.end());
      std::sort(direct.values.begin(), direct.values.end());
    }
    if (!st.ok() || got != direct.values) {
      if (mismatches++ == 0 && first_error->empty()) {
        *first_error = st.ok() ? "response differs from direct execution of "
                                 "request " + std::to_string(sample.request)
                               : "direct execution failed: " + st.ToString();
      }
    }
  }
  d->SetDeviceLatency(latency);
  return mismatches;
}

}  // namespace objbench
