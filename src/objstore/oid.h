// Object identifiers.
//
// The paper uses "the simplest OID's that provide location transparency —
// the concatenation of the relation identifier and the primary key of a
// tuple" (§2.2). Packed into a u64 so OIDs order first by relation, then
// by key — which is what makes a sorted temporary merge-joinable against
// one ChildRel's B-tree at a time.
#ifndef OBJREP_OBJSTORE_OID_H_
#define OBJREP_OBJSTORE_OID_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/macros.h"

namespace objrep {

struct Oid {
  uint32_t rel = 0;
  uint32_t key = 0;

  uint64_t Packed() const {
    return (static_cast<uint64_t>(rel) << 32) | key;
  }
  static Oid FromPacked(uint64_t packed) {
    return Oid{static_cast<uint32_t>(packed >> 32),
               static_cast<uint32_t>(packed & 0xffffffffu)};
  }

  friend bool operator==(const Oid&, const Oid&) = default;
  friend auto operator<=>(const Oid& a, const Oid& b) {
    return a.Packed() <=> b.Packed();
  }
};

/// Serializes an OID list into `*out`, the `children` attribute payload,
/// reusing its storage.
inline void EncodeOidListTo(const std::vector<Oid>& oids, std::string* out) {
  out->clear();
  for (const Oid& oid : oids) {
    uint64_t packed = oid.Packed();
    out->append(reinterpret_cast<const char*>(&packed), 8);
  }
}

/// Serializes an OID list into the `children` attribute payload.
inline std::string EncodeOidList(const std::vector<Oid>& oids) {
  std::string out;
  out.reserve(oids.size() * 8);
  EncodeOidListTo(oids, &out);
  return out;
}

/// Parses a `children` attribute payload.
inline std::vector<Oid> DecodeOidList(std::string_view payload) {
  OBJREP_CHECK(payload.size() % 8 == 0);
  std::vector<Oid> oids;
  oids.reserve(payload.size() / 8);
  for (size_t i = 0; i < payload.size(); i += 8) {
    uint64_t packed;
    std::memcpy(&packed, payload.data() + i, 8);
    oids.push_back(Oid::FromPacked(packed));
  }
  return oids;
}

}  // namespace objrep

#endif  // OBJREP_OBJSTORE_OID_H_
