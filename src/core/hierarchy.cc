#include "core/hierarchy.h"

#include <map>
#include <numeric>

#include "objstore/rows.h"
#include "relational/external_sort.h"
#include "relational/merge_join.h"
#include "relational/temp_file.h"
#include "util/random.h"

namespace objrep {

Status HierarchySpec::Validate() const {
  if (depth < 2) {
    return Status::InvalidArgument("hierarchy needs at least two levels");
  }
  if (depth > 8) {
    return Status::InvalidArgument("hierarchy deeper than 8 levels");
  }
  if (num_roots == 0 || size_unit == 0 || use_factor == 0) {
    return Status::InvalidArgument("spec parameters must be positive");
  }
  uint64_t n = num_roots;
  for (uint32_t l = 0; l + 1 < depth; ++l) {
    if ((n * size_unit) % use_factor != 0) {
      return Status::InvalidArgument(
          "use_factor must divide size_unit * |level| at every level");
    }
    if (n % use_factor != 0) {
      return Status::InvalidArgument(
          "use_factor must divide every level's cardinality");
    }
    n = n * size_unit / use_factor;
  }
  if (size_unit > 4095) {
    return Status::InvalidArgument("size_unit too large");
  }
  return Status::OK();
}

Status HierarchyDatabase::Build(const HierarchySpec& spec,
                                std::unique_ptr<HierarchyDatabase>* out) {
  OBJREP_RETURN_NOT_OK(spec.Validate());
  auto db = std::unique_ptr<HierarchyDatabase>(new HierarchyDatabase());
  db->spec_ = spec;
  db->disk_ = std::make_unique<DiskManager>();
  db->pool_ = std::make_unique<BufferPool>(db->disk_.get(), spec.buffer_pages);
  Rng rng(spec.seed);

  const uint32_t inner_dummy =
      ParentDummyWidth(spec.inner_tuple_bytes, spec.size_unit);
  const uint32_t leaf_dummy = ChildDummyWidth(spec.leaf_tuple_bytes);

  // Register one relation per level (top-down so rel ids ascend by level).
  for (uint32_t l = 0; l < spec.depth; ++l) {
    std::string name = "Level" + std::to_string(l);
    Schema schema = (l + 1 < spec.depth) ? MakeParentSchema(inner_dummy)
                                         : MakeChildSchema(leaf_dummy);
    db->levels_.push_back(db->catalog_.Register(std::move(name), schema));
  }

  // Generate units bottom-up is unnecessary — each level's units only need
  // the next level's cardinality. Work top-down.
  db->units_.resize(spec.depth - 1);
  db->unit_of_object_.resize(spec.depth - 1);
  for (uint32_t l = 0; l + 1 < spec.depth; ++l) {
    const uint32_t n_this = spec.LevelSize(l);
    const uint32_t n_next = spec.LevelSize(l + 1);
    const uint32_t num_units = n_this / spec.use_factor;
    OBJREP_CHECK(num_units * spec.size_unit == n_next);
    RelationId next_rel = db->levels_[l + 1]->rel_id();
    // Random partition of the next level into disjoint units.
    std::vector<uint32_t> keys(n_next);
    std::iota(keys.begin(), keys.end(), 0);
    rng.Shuffle(&keys);
    auto& units = db->units_[l];
    units.resize(num_units);
    for (uint32_t u = 0; u < num_units; ++u) {
      for (uint32_t j = 0; j < spec.size_unit; ++j) {
        units[u].push_back(Oid{next_rel, keys[u * spec.size_unit + j]});
      }
    }
    // Each unit referenced by exactly use_factor objects of this level.
    std::vector<uint32_t> assignment;
    assignment.reserve(n_this);
    for (uint32_t u = 0; u < num_units; ++u) {
      for (uint32_t i = 0; i < spec.use_factor; ++i) assignment.push_back(u);
    }
    rng.Shuffle(&assignment);
    db->unit_of_object_[l] = std::move(assignment);
  }

  // Bulk load every level.
  for (uint32_t l = 0; l < spec.depth; ++l) {
    const uint32_t n = spec.LevelSize(l);
    std::vector<std::pair<uint64_t, std::vector<Value>>> rows;
    rows.reserve(n);
    for (uint32_t k = 0; k < n; ++k) {
      if (l + 1 < spec.depth) {
        ParentRow row;
        row.oid = Oid{db->levels_[l]->rel_id(), k};
        row.ret1 = static_cast<int32_t>(rng.Uniform(1000000));
        row.ret2 = static_cast<int32_t>(rng.Uniform(1000000));
        row.ret3 = static_cast<int32_t>(rng.Uniform(1000000));
        row.children = db->units_[l][db->unit_of_object_[l][k]];
        rows.emplace_back(k, ParentRowValues(row, inner_dummy));
      } else {
        ChildRow row;
        row.oid = Oid{db->levels_[l]->rel_id(), k};
        row.ret1 = static_cast<int32_t>(rng.Uniform(1000000));
        row.ret2 = static_cast<int32_t>(rng.Uniform(1000000));
        row.ret3 = static_cast<int32_t>(rng.Uniform(1000000));
        rows.emplace_back(k, ChildRowValues(row, leaf_dummy));
      }
    }
    OBJREP_RETURN_NOT_OK(db->levels_[l]->BulkLoad(db->pool_.get(), rows));
  }

  OBJREP_RETURN_NOT_OK(db->pool_->FlushAll());
  db->disk_->ResetCounters();
  *out = std::move(db);
  return Status::OK();
}

Status HierarchyDatabase::ExpandDfs(uint32_t level, const Oid& oid,
                                    int attr_index, RetrieveResult* out) {
  const Table* table = levels_[level];
  std::string raw;
  OBJREP_RETURN_NOT_OK(table->tree().Get(oid.key, &raw));
  if (level + 1 == spec_.depth) {
    int32_t v;
    OBJREP_RETURN_NOT_OK(
        DecodeChildRet(table->schema(), raw, attr_index, &v));
    out->values.push_back(v);
    return Status::OK();
  }
  Value children;
  OBJREP_RETURN_NOT_OK(
      DecodeField(table->schema(), raw, kParentChildren, &children));
  for (const Oid& child : DecodeOidList(children.as_string())) {
    OBJREP_RETURN_NOT_OK(ExpandDfs(level + 1, child, attr_index, out));
  }
  return Status::OK();
}

Status HierarchyDatabase::RetrieveDfs(const Query& q, RetrieveResult* out) {
  const ThreadIoSnapshot start = CurrentThreadIo();
  // Scan the qualifying roots, recursively expanding each.
  BPlusTree::Iterator it = levels_[0]->tree().NewIterator();
  OBJREP_RETURN_NOT_OK(it.Seek(q.lo_parent));
  const uint64_t end = static_cast<uint64_t>(q.lo_parent) + q.num_top;
  while (it.valid() && it.key() < end) {
    Value children;
    OBJREP_RETURN_NOT_OK(DecodeField(levels_[0]->schema(), it.value(),
                                     kParentChildren, &children));
    {
      IoBracket child_bracket(&out->cost.child_io);
      for (const Oid& child : DecodeOidList(children.as_string())) {
        OBJREP_RETURN_NOT_OK(ExpandDfs(1, child, q.attr_index, out));
      }
    }
    OBJREP_RETURN_NOT_OK(it.Next());
  }
  out->cost.par_io =
      (CurrentThreadIo() - start).total() - out->cost.child_io;
  return Status::OK();
}

Status HierarchyDatabase::RetrieveBfs(const Query& q, bool dedup,
                                      RetrieveResult* out) {
  CostBreakdown& cost = out->cost;
  const ThreadIoSnapshot start = CurrentThreadIo();

  // Level 0: scan qualifying roots, seeding the first temporary.
  TempFile frontier;
  OBJREP_RETURN_NOT_OK(TempFile::Create(pool_.get(), &frontier));
  {
    BPlusTree::Iterator it = levels_[0]->tree().NewIterator();
    OBJREP_RETURN_NOT_OK(it.Seek(q.lo_parent));
    const uint64_t end = static_cast<uint64_t>(q.lo_parent) + q.num_top;
    while (it.valid() && it.key() < end) {
      Value children;
      OBJREP_RETURN_NOT_OK(DecodeField(levels_[0]->schema(), it.value(),
                                       kParentChildren, &children));
      IoBracket temp_bracket(&cost.temp_io);
      for (const Oid& child : DecodeOidList(children.as_string())) {
        OBJREP_RETURN_NOT_OK(frontier.Append(child.key));
      }
      OBJREP_RETURN_NOT_OK(it.Next());
    }
  }
  cost.par_io = (CurrentThreadIo() - start).total() - cost.temp_io;

  // Levels 1..depth-1: sort the frontier, merge join, emit the next one.
  for (uint32_t level = 1; level < spec_.depth; ++level) {
    frontier.Seal();
    TempFile sorted;
    {
      IoBracket temp_bracket(&cost.temp_io);
      SortOptions opts;
      opts.dedup = dedup;
      OBJREP_RETURN_NOT_OK(
          ExternalSort(pool_.get(), frontier, opts, &sorted));
    }
    const Table* table = levels_[level];
    const bool is_leaf = (level + 1 == spec_.depth);
    TempFile next;
    if (!is_leaf) {
      OBJREP_RETURN_NOT_OK(TempFile::Create(pool_.get(), &next));
    }
    IoBracket child_bracket(&cost.child_io);
    OBJREP_RETURN_NOT_OK(MergeJoinSortedKeys(
        sorted.Read(), table->tree(),
        [&](uint64_t /*key*/, std::string_view raw) -> Status {
          if (is_leaf) {
            int32_t v;
            OBJREP_RETURN_NOT_OK(
                DecodeChildRet(table->schema(), raw, q.attr_index, &v));
            out->values.push_back(v);
            return Status::OK();
          }
          Value children;
          OBJREP_RETURN_NOT_OK(
              DecodeField(table->schema(), raw, kParentChildren, &children));
          for (const Oid& child : DecodeOidList(children.as_string())) {
            OBJREP_RETURN_NOT_OK(next.Append(child.key));
          }
          return Status::OK();
        }));
    if (!is_leaf) {
      frontier = std::move(next);
    }
  }
  return Status::OK();
}

}  // namespace objrep
