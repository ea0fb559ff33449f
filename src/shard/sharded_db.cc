#include "shard/sharded_db.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace objrep {
namespace shard {

namespace {

/// Loads one shard from the generated database: the `local` parents
/// (ascending), every child a unit they use references, and the orphan
/// children parked here.
Status BuildOneShard(const ComplexDatabase& ref,
                     const std::vector<uint32_t>& local,
                     const std::vector<Oid>& local_orphans,
                     std::unique_ptr<ComplexDatabase>* out) {
  VolumeSlice slice;
  slice.parents = local;
  slice.children = ChildSet(ref);

  // Units my parents use, each with its smallest local user.
  constexpr uint32_t kNoUser = UINT32_MAX;
  std::vector<uint32_t> first_user(ref.units.size(), kNoUser);
  for (uint32_t p : local) {
    uint32_t& user = first_user[ref.unit_of_parent[p]];
    if (user == kNoUser) user = p;
  }
  for (uint32_t u = 0; u < first_user.size(); ++u) {
    if (first_user[u] == kNoUser) continue;
    for (const Oid& oid : ref.units[u]) slice.children.Insert(oid);
  }
  for (const Oid& oid : local_orphans) slice.children.Insert(oid);

  // ClusterRel: claim locally. The generated claim order interleaves all
  // parents; a shard only sees its own, so it claims deterministically
  // (units ascending) and keeps the generated owner when that owner is
  // local, else the smallest local user. Physical
  // placement differs from the single-engine build — placement is an I/O
  // cost concern, not a correctness one — but each local parent's cluster
  // record carries the same unit list, and the local ISAM index covers
  // every local child, so DFSCLUST answers are identical.
  if (ref.spec.build_cluster) {
    for (uint32_t u = 0; u < first_user.size(); ++u) {
      if (first_user[u] == kNoUser) continue;
      uint32_t owner = ref.unit_owner[u];
      bool owner_local = std::binary_search(local.begin(), local.end(), owner);
      slice.claims.emplace_back(u, owner_local ? owner : first_user[u]);
    }
  }

  auto db = std::make_unique<ComplexDatabase>();
  db->spec = ref.spec;
  RegisterRelations(db.get());
  OBJREP_RETURN_NOT_OK(LoadVolume(ref, slice, db.get()));
  *out = std::move(db);
  return Status::OK();
}

}  // namespace

Status BuildShardedDatabase(const DatabaseSpec& spec, uint32_t num_shards,
                            std::unique_ptr<ShardedDatabase>* out) {
  if (num_shards == 0 || num_shards > ShardRouter::kMaxShards) {
    return Status::InvalidArgument("num_shards must be in 1..64");
  }
  auto sdb = std::make_unique<ShardedDatabase>();
  sdb->spec = spec;
  sdb->router = ShardRouter(num_shards);
  OBJREP_RETURN_NOT_OK(GenerateDatabase(spec, &sdb->reference));
  const ComplexDatabase& ref = *sdb->reference;

  sdb->local_parents.resize(num_shards);
  for (uint32_t p = 0; p < spec.num_parents; ++p) {
    sdb->local_parents[sdb->router.ShardOfParent(p)].push_back(p);
  }

  // Children referenced by no unit (possible when OverlapFactor > 1) park
  // on a hash-chosen shard so every child row lives somewhere.
  ChildSet in_some_unit(ref);
  for (const std::vector<Oid>& unit : ref.units) {
    for (const Oid& oid : unit) in_some_unit.Insert(oid);
  }
  std::vector<std::vector<Oid>> orphans_of(num_shards);
  for (const std::vector<ChildRow>& rows : ref.child_rows) {
    for (const ChildRow& row : rows) {
      if (!in_some_unit.Contains(row.oid)) {
        orphans_of[sdb->router.OrphanShardOf(row.oid.Packed())].push_back(
            row.oid);
      }
    }
  }

  sdb->shards.resize(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    OBJREP_RETURN_NOT_OK(BuildOneShard(ref, sdb->local_parents[k],
                                       orphans_of[k], &sdb->shards[k]));
  }

  // Holder sets: shard k holds every child it replicated. Updates fan out
  // to all holders (DESIGN.md §14 invalidation protocol).
  for (uint32_t k = 0; k < num_shards; ++k) {
    for (uint32_t p : sdb->local_parents[k]) {
      for (const Oid& oid : ref.units[ref.unit_of_parent[p]]) {
        sdb->router.AddHolder(oid, k);
      }
    }
    for (const Oid& oid : orphans_of[k]) sdb->router.AddHolder(oid, k);
  }
  *out = std::move(sdb);
  return Status::OK();
}

}  // namespace shard
}  // namespace objrep
