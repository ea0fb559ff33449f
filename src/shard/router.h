// Shard routing (DESIGN.md §14).
//
// Parents are hash-partitioned: shard(p) = FNV-1a64(p) mod N. Children
// follow their users — a child row is replicated onto every shard that
// hosts a parent using a unit containing it, so each shard can answer
// retrieves for its local parents without cross-shard probes. The router
// records that placement as the *holder set* of each child OID, a bitmask
// of shards; updates fan out to every holder, which is what keeps the
// replicas (and each shard's cache, via the per-shard I-lock path)
// coherent.
#ifndef OBJREP_SHARD_ROUTER_H_
#define OBJREP_SHARD_ROUTER_H_

#include <cstdint>
#include <vector>

#include "objstore/oid.h"
#include "util/hash.h"

namespace objrep {
namespace shard {

class ShardRouter {
 public:
  explicit ShardRouter(uint32_t num_shards) : num_shards_(num_shards) {}

  uint32_t num_shards() const { return num_shards_; }

  /// Owning shard of a parent key. Pure function of (key, N) so every
  /// client and every layer computes the same answer.
  uint32_t ShardOfParent(uint32_t parent_key) const {
    return static_cast<uint32_t>(Fnv1a64(&parent_key, sizeof(parent_key)) %
                                 num_shards_);
  }

  /// Shard that parks a child referenced by no unit (an orphan — it must
  /// still live somewhere so updates have a target).
  uint32_t OrphanShardOf(uint64_t packed_oid) const {
    return static_cast<uint32_t>(Fnv1a64(&packed_oid, sizeof(packed_oid)) %
                                 num_shards_);
  }

  /// Records that `shard` holds a replica of child `oid`. Idempotent.
  /// `shard` must be below kMaxShards, the width of a holder mask.
  void AddHolder(const Oid& oid, uint32_t shard);

  /// Shards holding a replica of the child OID, ascending. Empty only for
  /// OIDs the build never saw.
  std::vector<uint32_t> HoldersOf(uint64_t packed_oid) const;

  /// Shards a holder mask can name.
  static constexpr uint32_t kMaxShards = 64;

 private:
  uint32_t num_shards_;
  /// One bit per holding shard, indexed by relation id, then child key
  /// (both dense); grown as the build adds holders.
  std::vector<std::vector<uint64_t>> holder_masks_;
};

}  // namespace shard
}  // namespace objrep

#endif  // OBJREP_SHARD_ROUTER_H_
