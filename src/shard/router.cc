#include "shard/router.h"

namespace objrep {
namespace shard {

void ShardRouter::AddHolder(const Oid& oid, uint32_t shard) {
  OBJREP_CHECK(shard < kMaxShards);
  if (oid.rel >= holder_masks_.size()) holder_masks_.resize(oid.rel + 1);
  std::vector<uint64_t>& masks = holder_masks_[oid.rel];
  if (oid.key >= masks.size()) masks.resize(oid.key + 1);
  masks[oid.key] |= uint64_t{1} << shard;
}

std::vector<uint32_t> ShardRouter::HoldersOf(uint64_t packed_oid) const {
  const Oid oid = Oid::FromPacked(packed_oid);
  std::vector<uint32_t> holders;
  if (oid.rel >= holder_masks_.size() ||
      oid.key >= holder_masks_[oid.rel].size()) {
    return holders;
  }
  for (uint64_t mask = holder_masks_[oid.rel][oid.key]; mask != 0;
       mask &= mask - 1) {
    holders.push_back(static_cast<uint32_t>(__builtin_ctzll(mask)));
  }
  return holders;
}

}  // namespace shard
}  // namespace objrep
