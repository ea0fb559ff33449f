#include "net/service.h"

#include <string>
#include <utility>

#include "obs/heat_map.h"
#include "obs/io_context.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace objrep {
namespace net {

namespace {

Response ErrorResponse(const Request& req, RespStatus status,
                       std::string msg) {
  Response resp;
  resp.status = status;
  resp.verb = req.verb;
  resp.id = req.id;
  resp.error = std::move(msg);
  return resp;
}

}  // namespace

ObjService::ObjService(ComplexDatabase* db, StrategyKind default_strategy,
                       StrategyOptions options)
    : owned_engine_(std::make_unique<shard::ShardedEngine>(db, options)),
      engine_(owned_engine_.get()),
      default_strategy_(default_strategy) {}

ObjService::ObjService(shard::ShardedEngine* engine,
                       StrategyKind default_strategy, StrategyOptions)
    : engine_(engine), default_strategy_(default_strategy) {}

Response ObjService::Execute(const Request& req) {
  if (req.verb != Verb::kRetrieve && req.verb != Verb::kUpdate) {
    return ErrorResponse(req, RespStatus::kBadRequest,
                         "verb is not executable against the database");
  }

  StrategyKind kind;
  if (Status s = StrategyFromByte(req.strategy, default_strategy_, &kind);
      !s.ok()) {
    return ErrorResponse(req, RespStatus::kBadRequest, s.ToString());
  }
  Response resp;
  resp.verb = req.verb;
  resp.id = req.id;

  // Profile collection: installed when the client asked (PROFILE flag) or
  // whenever the slow-query ring is armed — the layers below report into
  // the thread-local collector only while one is installed, so the
  // un-profiled path costs one thread-local load per hook.
  const bool want_profile = req.verb == Verb::kRetrieve &&
                            (req.flags & kReqFlagProfile) != 0;
  const bool collect = want_profile || SlowQueryRing::Global().armed();
  ProfileCollector collector;
  std::unique_ptr<ProfileCollector::Scope> scope;
  uint64_t start_us = 0;
  IoTagBreakdown tags_before;
  uint64_t hits_before = 0, misses_before = 0;
  if (collect) {
    collector.profile.trace_id = CurrentTraceId();
    collector.profile.verb =
        req.verb == Verb::kRetrieve ? "retrieve" : "update";
    scope = std::make_unique<ProfileCollector::Scope>(&collector);
    start_us = Trace::NowMicros();
    tags_before = CurrentThreadIoTags();
    const IoThreadState& st = CurrentIoThreadState();
    hits_before = st.cache_hits;
    misses_before = st.cache_misses;
  }

  Status s = req.verb == Verb::kRetrieve ? DoRetrieve(req, kind, &resp)
                                         : DoUpdate(req, kind, &resp);

  if (collect) {
    // Added to what fan-out helpers already merged in: their I/O and cache
    // traffic never touched this thread's counters.
    collector.profile.total_us = Trace::NowMicros() - start_us;
    collector.profile.io += CurrentThreadIoTags() - tags_before;
    const IoThreadState& st = CurrentIoThreadState();
    collector.profile.cache_hits += st.cache_hits - hits_before;
    collector.profile.cache_misses += st.cache_misses - misses_before;
    collector.profile.rows = resp.values.size();
    scope.reset();
    SlowQueryRing::Global().MaybeRecord(collector.profile);
    if (want_profile && s.ok()) {
      resp.profile_json = collector.profile.ToJson();
    }
  }

  if (!s.ok()) {
    RespStatus rs = s.IsInvalidArgument() ? RespStatus::kBadRequest
                                          : RespStatus::kError;
    return ErrorResponse(req, rs, s.ToString());
  }
  return resp;
}

Status ObjService::DoRetrieve(const Request& req, StrategyKind kind,
                              Response* resp) {
  const DatabaseSpec& spec = engine_->spec();
  if (req.num_top == 0) {
    return Status::InvalidArgument("retrieve: num_top must be positive");
  }
  if (req.lo_parent >= spec.num_parents ||
      req.num_top > spec.num_parents - req.lo_parent) {
    return Status::InvalidArgument(
        "retrieve: parent range exceeds |ParentRel|");
  }
  if (req.attr_index > 2) {
    return Status::InvalidArgument("retrieve: attr_index out of [0, 2]");
  }
  Query q;
  q.kind = Query::Kind::kRetrieve;
  q.lo_parent = req.lo_parent;
  q.num_top = req.num_top;
  q.attr_index = req.attr_index;

  TraceSpan span("retrieve", "query");
  span.SetArg("num_top", q.num_top);
  RetrieveResult result;
  // The engine takes locks or a snapshot per shard sub-query and reports
  // per-shard timing, I/O and lock waits into any installed profile.
  OBJREP_RETURN_NOT_OK(engine_->ExecuteRetrieve(kind, q, &result));

  // Traffic heat: the parent range this request walked, and the child
  // relations its subobjects came from (one relaxed add per relation).
  HeatMap& heat = HeatMap::Global();
  if (heat.enabled()) {
    heat.TouchParents(q.lo_parent, q.num_top);
    uint64_t rel_counts[HeatMap::kRelSlots] = {};
    for (const Oid& oid : result.oids) {
      ++rel_counts[oid.rel % HeatMap::kRelSlots];
    }
    for (size_t r = 0; r < HeatMap::kRelSlots; ++r) {
      if (rel_counts[r] != 0) {
        heat.TouchRel(static_cast<uint32_t>(r), rel_counts[r]);
      }
    }
  }
  resp->values = std::move(result.values);
  return Status::OK();
}

Status ObjService::DoUpdate(const Request& req, StrategyKind kind,
                            Response* resp) {
  if (req.update_targets.empty()) {
    return Status::InvalidArgument("update: empty OID list");
  }
  const DatabaseSpec& spec = engine_->spec();
  const uint32_t children_per_rel =
      spec.num_children_total() / spec.num_child_rels;
  // Relation ids are identical on every shard (same registration order),
  // so shard 0's catalog answers for the whole store.
  const ComplexDatabase* catalog = engine_->shard(0);
  for (const Oid& oid : req.update_targets) {
    if (catalog->ChildRelById(oid.rel) == nullptr) {
      return Status::InvalidArgument("update: OID names no child relation");
    }
    if (oid.key >= children_per_rel) {
      return Status::InvalidArgument("update: OID key out of range");
    }
  }
  Query q;
  q.kind = Query::Kind::kUpdate;
  q.update_targets = req.update_targets;
  q.new_ret1 = req.new_ret1;

  TraceSpan span("update", "query");
  span.SetArg("targets", q.update_targets.size());
  HeatMap& heat = HeatMap::Global();
  if (heat.enabled()) {
    for (const Oid& oid : req.update_targets) heat.TouchRel(oid.rel);
  }
  // The engine fans out to every holder shard, each under its own X locks
  // and WAL transaction, or its own version store.
  OBJREP_RETURN_NOT_OK(engine_->ExecuteUpdate(kind, q));
  resp->updated = static_cast<uint32_t>(q.update_targets.size());
  return Status::OK();
}

}  // namespace net
}  // namespace objrep
