#include "core/procedural.h"

#include <algorithm>
#include <numeric>

#include "objstore/unit_blob.h"
#include "util/hash.h"
#include "util/random.h"

namespace objrep {

namespace {

// ProcChild: OID, ret1..3, tag (the attribute stored queries select on),
// dummy pad. ProcParent: OID, ret1..3, dummy pad, query descriptor, and an
// inside-cache slot.
enum ProcChildField : size_t {
  kPcOid = 0,
  kPcRet1 = 1,
  kPcRet2 = 2,
  kPcRet3 = 3,
  kPcTag = 4,
  kPcDummy = 5,
};

enum ProcParentField : size_t {
  kPpOid = 0,
  kPpRet1 = 1,
  kPpRet2 = 2,
  kPpRet3 = 3,
  kPpDummy = 4,
  kPpQuery = 5,
  kPpCached = 6,
};

Schema ProcChildSchema(uint32_t dummy_width) {
  return Schema({
      {"OID", FieldType::kInt64, 0},
      {"ret1", FieldType::kInt32, 0},
      {"ret2", FieldType::kInt32, 0},
      {"ret3", FieldType::kInt32, 0},
      {"tag", FieldType::kInt32, 0},
      {"dummy", FieldType::kChar, dummy_width},
  });
}

Schema ProcParentSchema(uint32_t dummy_width) {
  return Schema({
      {"OID", FieldType::kInt64, 0},
      {"ret1", FieldType::kInt32, 0},
      {"ret2", FieldType::kInt32, 0},
      {"ret3", FieldType::kInt32, 0},
      {"dummy", FieldType::kChar, dummy_width},
      {"query", FieldType::kBytes, 0},
      {"cached", FieldType::kBytes, 0},
  });
}

// Stored query descriptor: "retrieve (ChildRel.all) where ChildRel.tag = t".
std::string EncodeQueryDescriptor(uint32_t tag) {
  std::string out(8, '\0');
  uint32_t rel = 1;
  std::memcpy(out.data(), &rel, 4);
  std::memcpy(out.data() + 4, &tag, 4);
  return out;
}

uint32_t DecodeQueryTag(std::string_view raw) {
  OBJREP_CHECK(raw.size() == 8);
  uint32_t tag;
  std::memcpy(&tag, raw.data() + 4, 4);
  return tag;
}

/// Query-identity hashkey for the outside value cache.
uint64_t QueryHashKey(uint32_t tag) { return Mix64(0x9c0ffee0u + tag); }

/// Separate hashkey space for cached OID lists, so a database could carry
/// both cached representations at once.
uint64_t OidListHashKey(uint32_t tag) {
  return Mix64(0x01d11570ULL + tag);
}

/// Cached-OID-list payload: the result's child keys, packed u32 LE.
std::string EncodeKeyList(const std::vector<uint32_t>& keys) {
  std::string out;
  out.reserve(keys.size() * 4);
  for (uint32_t k : keys) {
    out.append(reinterpret_cast<const char*>(&k), 4);
  }
  return out;
}

std::vector<uint32_t> DecodeKeyList(std::string_view raw) {
  std::vector<uint32_t> keys;
  keys.reserve(raw.size() / 4);
  for (size_t i = 0; i + 4 <= raw.size(); i += 4) {
    uint32_t k;
    std::memcpy(&k, raw.data() + i, 4);
    keys.push_back(k);
  }
  return keys;
}

}  // namespace

const char* ProcStrategyName(ProcStrategy s) {
  switch (s) {
    case ProcStrategy::kExec: return "EXEC";
    case ProcStrategy::kExecIndexed: return "EXEC-INDEXED";
    case ProcStrategy::kCacheOutside: return "CACHE-OUTSIDE";
    case ProcStrategy::kCacheOids: return "CACHE-OIDS";
    case ProcStrategy::kCacheInside: return "CACHE-INSIDE";
  }
  return "?";
}

Status ProceduralDatabase::Build(const DatabaseSpec& spec,
                                 std::unique_ptr<ProceduralDatabase>* out) {
  OBJREP_RETURN_NOT_OK(spec.Validate());
  if (spec.overlap_factor != 1) {
    return Status::InvalidArgument(
        "procedural units are defined by a predicate; they cannot overlap");
  }
  if (spec.num_child_rels != 1) {
    return Status::NotSupported(
        "procedural representation models a single child relation");
  }
  auto db = std::unique_ptr<ProceduralDatabase>(new ProceduralDatabase());
  db->spec_ = spec;
  db->disk_ = std::make_unique<DiskManager>();
  db->pool_ = std::make_unique<BufferPool>(db->disk_.get(), spec.buffer_pages);
  Rng rng(spec.seed);

  const uint32_t num_children = spec.num_children_total();
  const uint32_t num_groups = spec.num_units();
  const uint32_t child_dummy =
      spec.child_tuple_bytes > 30 ? spec.child_tuple_bytes - 30 : 1;
  const uint32_t parent_dummy =
      spec.parent_tuple_bytes > 36 ? spec.parent_tuple_bytes - 36 : 1;
  db->child_rel_ = Table("ProcChildRel", 1, ProcChildSchema(child_dummy));
  db->parent_rel_ = Table("ProcParentRel", 2, ProcParentSchema(parent_dummy));

  // Random partition of children into groups of SizeUnit.
  std::vector<uint32_t> keys(num_children);
  std::iota(keys.begin(), keys.end(), 0);
  rng.Shuffle(&keys);
  db->groups_.resize(num_groups);
  std::vector<uint32_t> tag_of_child(num_children);
  for (uint32_t g = 0; g < num_groups; ++g) {
    for (uint32_t j = 0; j < spec.size_unit; ++j) {
      uint32_t k = keys[g * spec.size_unit + j];
      db->groups_[g].push_back(k);
      tag_of_child[k] = g;
    }
  }

  // Bulk load ChildRel.
  {
    std::vector<std::pair<uint64_t, std::vector<Value>>> rows;
    rows.reserve(num_children);
    for (uint32_t k = 0; k < num_children; ++k) {
      rows.emplace_back(
          k, std::vector<Value>{
                 Value(static_cast<int64_t>(Oid{1, k}.Packed())),
                 Value(static_cast<int32_t>(rng.Uniform(1000000))),
                 Value(static_cast<int32_t>(rng.Uniform(1000000))),
                 Value(static_cast<int32_t>(rng.Uniform(1000000))),
                 Value(static_cast<int32_t>(tag_of_child[k])),
                 Value(std::string(child_dummy, 'x')),
             });
    }
    OBJREP_RETURN_NOT_OK(db->child_rel_.BulkLoad(db->pool_.get(), rows));
  }

  // Assign each group to exactly UseFactor parents, then bulk load.
  std::vector<uint32_t> assignment;
  assignment.reserve(spec.num_parents);
  for (uint32_t g = 0; g < num_groups; ++g) {
    for (uint32_t i = 0; i < spec.use_factor; ++i) assignment.push_back(g);
  }
  rng.Shuffle(&assignment);
  db->group_of_parent_ = std::move(assignment);
  {
    std::vector<std::pair<uint64_t, std::vector<Value>>> rows;
    rows.reserve(spec.num_parents);
    for (uint32_t p = 0; p < spec.num_parents; ++p) {
      rows.emplace_back(
          p, std::vector<Value>{
                 Value(static_cast<int64_t>(Oid{2, p}.Packed())),
                 Value(static_cast<int32_t>(rng.Uniform(1000000))),
                 Value(static_cast<int32_t>(rng.Uniform(1000000))),
                 Value(static_cast<int32_t>(rng.Uniform(1000000))),
                 Value(std::string(parent_dummy, 'x')),
                 Value(EncodeQueryDescriptor(db->group_of_parent_[p])),
                 Value(std::string()),  // inside-cache slot, empty
             });
    }
    OBJREP_RETURN_NOT_OK(db->parent_rel_.BulkLoad(db->pool_.get(), rows));
  }

  if (spec.build_cache) {
    db->outside_cache_ = std::make_unique<CacheManager>(
        db->pool_.get(), spec.size_cache, spec.cache_buckets,
        spec.cache_admission);
    OBJREP_RETURN_NOT_OK(db->outside_cache_->Init());
  }

  if (spec.build_tag_index) {
    std::vector<SecondaryIndex::Entry> entries;
    entries.reserve(num_children);
    for (uint32_t k = 0; k < num_children; ++k) {
      entries.push_back(SecondaryIndex::Entry{
          static_cast<int32_t>(tag_of_child[k]), k});
    }
    OBJREP_RETURN_NOT_OK(SecondaryIndex::Build(
        db->pool_.get(), std::move(entries), &db->tag_index_));
    db->has_tag_index_ = true;
  }

  OBJREP_RETURN_NOT_OK(db->pool_->FlushAll());
  db->disk_->ResetCounters();
  *out = std::move(db);
  return Status::OK();
}

Status ProceduralDatabase::RunStoredQuery(uint32_t tag,
                                          std::vector<std::string>* records) {
  // Selection on the non-key `tag` attribute: full relation scan, exactly
  // like the paper's person.age predicate without an index.
  records->clear();
  BPlusTree::Iterator it = child_rel_.tree().NewIterator();
  OBJREP_RETURN_NOT_OK(it.SeekToFirst());
  const Schema& schema = child_rel_.schema();
  while (it.valid()) {
    Value v;
    OBJREP_RETURN_NOT_OK(DecodeField(schema, it.value(), kPcTag, &v));
    if (static_cast<uint32_t>(v.as_int32()) == tag) {
      records->emplace_back(it.value());
    }
    OBJREP_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

Status ProceduralDatabase::RunStoredQueryIndexed(
    uint32_t tag, std::vector<std::string>* records) {
  records->clear();
  std::vector<uint32_t> keys;
  OBJREP_RETURN_NOT_OK(
      tag_index_.LookupEqual(static_cast<int32_t>(tag), &keys));
  for (uint32_t k : keys) {
    std::string raw;
    OBJREP_RETURN_NOT_OK(child_rel_.tree().Get(k, &raw));
    records->push_back(std::move(raw));
  }
  return Status::OK();
}

Status ProceduralDatabase::ExecuteRetrieve(const Query& q,
                                           ProcStrategy strategy,
                                           RetrieveResult* out) {
  if ((strategy == ProcStrategy::kCacheOutside ||
       strategy == ProcStrategy::kCacheOids) &&
      outside_cache_ == nullptr) {
    return Status::InvalidArgument(
        "outside caching requires spec.build_cache");
  }
  if (strategy == ProcStrategy::kExecIndexed && !has_tag_index_) {
    return Status::InvalidArgument(
        "indexed execution requires spec.build_tag_index");
  }
  CostBreakdown& cost = out->cost;
  const ThreadIoSnapshot start = CurrentThreadIo();
  const Schema& pschema = parent_rel_.schema();
  const Schema& cschema = child_rel_.schema();

  auto project_records = [&](const std::vector<std::string_view>& records)
      -> Status {
    for (std::string_view raw : records) {
      Value v;
      OBJREP_RETURN_NOT_OK(DecodeField(
          cschema, raw, kPcRet1 + static_cast<size_t>(q.attr_index), &v));
      out->values.push_back(v.as_int32());
    }
    return Status::OK();
  };

  // The scan collects the work first (tag per parent and, for inside
  // caching, any embedded blob); rewrites of parent tuples happen after the
  // iterator moves on, so the tree is never mutated under a live cursor.
  struct ParentWork {
    uint32_t key;
    uint32_t tag;
    bool inside_hit;
    std::string blob;
  };
  std::vector<ParentWork> work;
  {
    BPlusTree::Iterator it = parent_rel_.tree().NewIterator();
    OBJREP_RETURN_NOT_OK(it.Seek(q.lo_parent));
    const uint64_t end = static_cast<uint64_t>(q.lo_parent) + q.num_top;
    while (it.valid() && it.key() < end) {
      ParentWork w;
      w.key = static_cast<uint32_t>(it.key());
      Value qd;
      OBJREP_RETURN_NOT_OK(DecodeField(pschema, it.value(), kPpQuery, &qd));
      w.tag = DecodeQueryTag(qd.as_string());
      w.inside_hit = false;
      if (strategy == ProcStrategy::kCacheInside) {
        Value cached;
        OBJREP_RETURN_NOT_OK(
            DecodeField(pschema, it.value(), kPpCached, &cached));
        if (!cached.as_string().empty()) {
          w.inside_hit = true;
          w.blob = cached.as_string();
        }
      }
      work.push_back(std::move(w));
      OBJREP_RETURN_NOT_OK(it.Next());
    }
  }
  cost.par_io = (CurrentThreadIo() - start).total();

  for (ParentWork& w : work) {
    switch (strategy) {
      case ProcStrategy::kExec:
      case ProcStrategy::kExecIndexed: {
        IoBracket child_bracket(&cost.child_io);
        std::vector<std::string> records;
        if (strategy == ProcStrategy::kExecIndexed) {
          OBJREP_RETURN_NOT_OK(RunStoredQueryIndexed(w.tag, &records));
        } else {
          OBJREP_RETURN_NOT_OK(RunStoredQuery(w.tag, &records));
        }
        std::vector<std::string_view> views(records.begin(), records.end());
        OBJREP_RETURN_NOT_OK(project_records(views));
        break;
      }
      case ProcStrategy::kCacheOutside: {
        uint64_t hk = QueryHashKey(w.tag);
        if (outside_cache_->IsCached(hk)) {
          IoBracket cache_bracket(&cost.cache_io);
          std::string blob;
          OBJREP_RETURN_NOT_OK(outside_cache_->FetchUnit(hk, &blob));
          std::vector<std::string_view> records;
          OBJREP_RETURN_NOT_OK(DecodeUnitBlob(blob, &records));
          OBJREP_RETURN_NOT_OK(project_records(records));
        } else {
          std::vector<std::string> records;
          {
            IoBracket child_bracket(&cost.child_io);
            OBJREP_RETURN_NOT_OK(RunStoredQuery(w.tag, &records));
          }
          std::vector<std::string_view> views(records.begin(),
                                              records.end());
          OBJREP_RETURN_NOT_OK(project_records(views));
          // Maintain the cache and drop I-locks on the group's members.
          std::vector<Oid> members;
          for (std::string_view raw : views) {
            Value oid_val;
            OBJREP_RETURN_NOT_OK(
                DecodeField(cschema, raw, kPcOid, &oid_val));
            members.push_back(
                Oid::FromPacked(static_cast<uint64_t>(oid_val.as_int64())));
          }
          IoBracket cache_bracket(&cost.cache_io);
          OBJREP_RETURN_NOT_OK(
              outside_cache_->InsertUnit(hk, members, EncodeUnitBlob(records)));
        }
        break;
      }
      case ProcStrategy::kCacheOids: {
        uint64_t hk = OidListHashKey(w.tag);
        if (outside_cache_->IsCached(hk)) {
          // Hit: the cached OID list avoids the scan; the subobject
          // *values* still cost one probe each (§2.3: "Object Identifiers
          // capture the identities of the subobjects, but not their
          // contents").
          std::string blob;
          {
            IoBracket cache_bracket(&cost.cache_io);
            OBJREP_RETURN_NOT_OK(outside_cache_->FetchUnit(hk, &blob));
          }
          IoBracket child_bracket(&cost.child_io);
          for (uint32_t key : DecodeKeyList(blob)) {
            std::string raw;
            OBJREP_RETURN_NOT_OK(child_rel_.tree().Get(key, &raw));
            Value v;
            OBJREP_RETURN_NOT_OK(DecodeField(
                cschema, raw, kPcRet1 + static_cast<size_t>(q.attr_index),
                &v));
            out->values.push_back(v.as_int32());
          }
          break;
        }
        std::vector<std::string> records;
        {
          IoBracket child_bracket(&cost.child_io);
          OBJREP_RETURN_NOT_OK(RunStoredQuery(w.tag, &records));
        }
        std::vector<std::string_view> views(records.begin(), records.end());
        OBJREP_RETURN_NOT_OK(project_records(views));
        std::vector<uint32_t> keys;
        std::vector<Oid> members;
        for (std::string_view raw : views) {
          Value oid_val;
          OBJREP_RETURN_NOT_OK(DecodeField(cschema, raw, kPcOid, &oid_val));
          Oid oid = Oid::FromPacked(static_cast<uint64_t>(oid_val.as_int64()));
          keys.push_back(oid.key);
          members.push_back(oid);
        }
        IoBracket cache_bracket(&cost.cache_io);
        OBJREP_RETURN_NOT_OK(
            outside_cache_->InsertUnit(hk, members, EncodeKeyList(keys)));
        break;
      }
      case ProcStrategy::kCacheInside: {
        if (w.inside_hit) {
          std::vector<std::string_view> records;
          OBJREP_RETURN_NOT_OK(DecodeUnitBlob(w.blob, &records));
          OBJREP_RETURN_NOT_OK(project_records(records));
          break;
        }
        std::vector<std::string> records;
        {
          IoBracket child_bracket(&cost.child_io);
          OBJREP_RETURN_NOT_OK(RunStoredQuery(w.tag, &records));
        }
        std::vector<std::string_view> views(records.begin(), records.end());
        OBJREP_RETURN_NOT_OK(project_records(views));
        // Cache inside the parent tuple: rewrite it with the blob. The
        // tuple grows, so this is a delete + insert, not an in-place write.
        IoBracket cache_bracket(&cost.cache_io);
        std::vector<Value> row;
        OBJREP_RETURN_NOT_OK(parent_rel_.Get(w.key, &row));
        row[kPpCached] = Value(EncodeUnitBlob(records));
        std::string encoded;
        OBJREP_RETURN_NOT_OK(EncodeRecord(pschema, row, &encoded));
        OBJREP_RETURN_NOT_OK(parent_rel_.tree().Delete(w.key));
        OBJREP_RETURN_NOT_OK(parent_rel_.tree().Insert(w.key, encoded));
        for (std::string_view raw : views) {
          Value oid_val;
          OBJREP_RETURN_NOT_OK(DecodeField(cschema, raw, kPcOid, &oid_val));
          inside_locks_[Oid::FromPacked(
                            static_cast<uint64_t>(oid_val.as_int64()))
                            .key]
              .push_back(w.key);
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status ProceduralDatabase::ExecuteUpdate(const Query& q,
                                         ProcStrategy strategy) {
  const Schema& pschema = parent_rel_.schema();
  for (const Oid& target : q.update_targets) {
    // In-place modification of the child's ret1.
    std::vector<Value> row;
    OBJREP_RETURN_NOT_OK(child_rel_.Get(target.key, &row));
    row[kPcRet1] = Value(q.new_ret1);
    OBJREP_RETURN_NOT_OK(child_rel_.UpdateInPlace(target.key, row));

    switch (strategy) {
      case ProcStrategy::kExec:
        break;
      case ProcStrategy::kExecIndexed:
        // The predicate attribute (tag) is immutable under the paper's
        // updates (they modify ret fields), so the index needs no
        // maintenance here; SecondaryIndex::OnUpdate covers the general
        // case.
        break;
      case ProcStrategy::kCacheOutside:
        OBJREP_RETURN_NOT_OK(
            outside_cache_->InvalidateSubobject(Oid{1, target.key}));
        break;
      case ProcStrategy::kCacheOids:
        // A value update does not change the stored query's *result set*,
        // so the cached OID list stays valid — the structural advantage
        // of caching identities over contents. (Membership-changing
        // operations would invalidate here; the paper's workload has
        // none: "there are no insertions or deletions", §4.)
        break;
      case ProcStrategy::kCacheInside: {
        // Every parent embedding this child must have its blob purged —
        // a full tuple rewrite per replica.
        auto it = inside_locks_.find(target.key);
        if (it == inside_locks_.end()) break;
        std::vector<uint32_t> holders = std::move(it->second);
        inside_locks_.erase(it);
        for (uint32_t p : holders) {
          std::vector<Value> prow;
          OBJREP_RETURN_NOT_OK(parent_rel_.Get(p, &prow));
          if (prow[kPpCached].as_string().empty()) continue;
          prow[kPpCached] = Value(std::string());
          std::string encoded;
          OBJREP_RETURN_NOT_OK(EncodeRecord(pschema, prow, &encoded));
          OBJREP_RETURN_NOT_OK(parent_rel_.tree().Delete(p));
          OBJREP_RETURN_NOT_OK(parent_rel_.tree().Insert(p, encoded));
        }
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace objrep
