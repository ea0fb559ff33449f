// Per-request profiles end to end (DESIGN.md §16): a PROFILE-flagged
// RETRIEVE against a 4-shard MVCC engine returns a RetrieveProfile whose
// per-shard per-tag I/O sums *exactly* to the engines' flat counters —
// the same exactness invariant io_attribution_test pins for flat runs,
// here proven across the service boundary, for the point-wise path and
// for the concurrent scatter-gather paths whose sub-queries run on helper
// threads. Also: a sharded 2PL sub-query's lock wait in the profile, the
// PROFILE flag over a real socket, trace-id stamping, unknown-flag
// rejection, the slow-query ring surfacing through STATS, and read-ahead
// billed to the request that hinted it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/lock_manager.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/service.h"
#include "obs/heat_map.h"
#include "obs/io_context.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace_context.h"
#include "objstore/database.h"
#include "shard/engine.h"
#include "shard/sharded_db.h"

namespace objrep {
namespace net {
namespace {

/// One point-wise strategy and the scatter-gather ones: sorted merge,
/// merge with cross-shard dedup, and concatenation.
constexpr StrategyKind kProfiledStrategies[] = {
    StrategyKind::kDfs, StrategyKind::kBfs, StrategyKind::kBfsNoDup,
    StrategyKind::kAdaptive};

DatabaseSpec ShardedMvccSpec() {
  DatabaseSpec spec;
  spec.num_parents = 128;
  spec.size_unit = 4;
  spec.use_factor = 2;
  spec.overlap_factor = 1;
  spec.num_child_rels = 2;
  // Per-shard pools much smaller than a shard's data: retrieves must do
  // attributable physical I/O.
  spec.buffer_pages = 8;
  spec.enable_wal = true;
  spec.enable_mvcc = true;
  spec.seed = 61;
  return spec;
}

/// Parses the integer right after `"key":` starting at `from`; -1 if the
/// key is absent. The profile serializer emits bare non-negative decimals
/// for every integer field, so no general JSON machinery is needed. A
/// 64-bit trace id is accumulated unsigned (no signed overflow) and comes
/// back through static_cast<uint64_t> intact.
int64_t IntAfter(const std::string& json, const std::string& key,
                 size_t from = 0, size_t* at = nullptr) {
  const std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle, from);
  if (pos == std::string::npos) return -1;
  pos += needle.size();
  uint64_t v = 0;
  bool any = false;
  while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
    v = v * 10 + (json[pos] - '0');
    ++pos;
    any = true;
  }
  if (at != nullptr) *at = pos;
  return any ? static_cast<int64_t>(v) : -1;
}

/// Sums every occurrence of `"key":N` at or after `from`.
int64_t SumAll(const std::string& json, const std::string& key,
               size_t from) {
  int64_t total = 0;
  size_t pos = from;
  for (;;) {
    size_t next = 0;
    int64_t v = IntAfter(json, key, pos, &next);
    if (v < 0) return total;
    total += v;
    pos = next;
  }
}

TEST(NetProfileTest, ShardedMvccProfileSumsExactlyToEngineCounters) {
  for (StrategyKind kind : kProfiledStrategies) {
    SCOPED_TRACE(StrategyKindName(kind));
    std::unique_ptr<shard::ShardedDatabase> sdb;
    ASSERT_TRUE(
        shard::BuildShardedDatabase(ShardedMvccSpec(), 4, &sdb).ok());
    shard::ShardedEngine engine(sdb.get(), StrategyOptions{});
    ObjService service(&engine, kind, StrategyOptions{});

    // A slow device on shard 0, which the caller runs itself: the helpers
    // claim shards 1..3 long before the caller could claim them back, so
    // their I/O reaches the profile only through the caller's merge.
    const bool fans_out = kind != StrategyKind::kDfs;
    if (fans_out) sdb->shards[0]->disk->set_io_latency_us(2000);
    Counter* helper_runs = MetricsRegistry::Global().GetCounter(
        "shard.fanout_helper_subqueries");
    const uint64_t helped_before = helper_runs->value();

    std::vector<IoCounters> before;
    for (const auto& s : sdb->shards) before.push_back(s->disk->counters());

    ScopedTraceId scope(0x1234);
    Request req;
    req.verb = Verb::kRetrieve;
    req.flags = kReqFlagProfile;
    req.lo_parent = 0;
    req.num_top = sdb->spec.num_parents;  // full range: every shard works
    req.attr_index = 0;
    Response resp = service.Execute(req);
    ASSERT_EQ(resp.status, RespStatus::kOk) << resp.error;
    ASSERT_FALSE(resp.profile_json.empty());
    ASSERT_FALSE(resp.values.empty());
    EXPECT_EQ(helper_runs->value() - helped_before, fans_out ? 3u : 0u)
        << "sub-queries on shards 1..3 must run on fan-out helpers";
    const std::string& p = resp.profile_json;

    // Ground truth: the flat IoCounters delta summed over every shard's
    // disk. Only this one request ran, so all of it is this request's —
    // including the I/O its sub-queries did on fan-out helper threads.
    uint64_t reads = 0, writes = 0;
    for (size_t k = 0; k < sdb->shards.size(); ++k) {
      IoCounters delta = sdb->shards[k]->disk->counters() - before[k];
      reads += delta.reads;
      writes += delta.writes;
    }
    EXPECT_GT(reads, 0u) << "retrieve did no physical I/O; nothing to pin";

    // Whole-request totals match the engines exactly.
    EXPECT_EQ(IntAfter(p, "total_reads"), static_cast<int64_t>(reads)) << p;
    EXPECT_EQ(IntAfter(p, "total_writes"), static_cast<int64_t>(writes))
        << p;

    // The per-shard slices partition the whole-request bill: the
    // request's "io" block appears before "shards", so summed occurrences
    // past that point are exactly the slices.
    size_t shards_at = p.find("\"shards\":[");
    ASSERT_NE(shards_at, std::string::npos) << p;
    EXPECT_EQ(SumAll(p, "total_reads", shards_at),
              static_cast<int64_t>(reads));
    EXPECT_EQ(SumAll(p, "total_writes", shards_at),
              static_cast<int64_t>(writes));
    // Full-range scatter: all 4 shards report a slice (distinct ids — the
    // sum alone could alias, so count the slices too).
    size_t slices = 0;
    for (size_t pos = p.find("{\"shard\":", shards_at);
         pos != std::string::npos; pos = p.find("{\"shard\":", pos + 1)) {
      ++slices;
    }
    EXPECT_EQ(slices, 4u) << p;
    EXPECT_EQ(SumAll(p, "shard", shards_at), 0 + 1 + 2 + 3) << p;
    if (kind == StrategyKind::kAdaptive) {
      EXPECT_GE(IntAfter(p, "plan"), 0) << p;
    }

    // The ambient trace id is stamped into the profile.
    EXPECT_EQ(IntAfter(p, "trace_id"), 0x1234) << p;
    EXPECT_EQ(IntAfter(p, "rows"),
              static_cast<int64_t>(resp.values.size())) << p;
  }
}

// Read-ahead runs on the thread that hints it (DESIGN.md §9), so a
// profiled retrieve on a prefetch-enabled database bills its staged reads
// to the request: the calling thread's per-tag delta equals the volume's,
// tag for tag, with the prefetch tag nonzero, and the profile reports it.
TEST(NetProfileTest, PrefetchProfileBillsReadAheadToTheRequest) {
  DatabaseSpec spec;
  spec.num_parents = 200;
  spec.size_unit = 5;
  spec.use_factor = 1;  // DFSCLUST's extents then hold every child
  spec.overlap_factor = 1;
  spec.buffer_pages = 16;
  spec.build_cluster = true;
  spec.prefetch = true;
  spec.seed = 67;
  for (StrategyKind kind :
       {StrategyKind::kDfs, StrategyKind::kBfs, StrategyKind::kDfsClust}) {
    SCOPED_TRACE(StrategyKindName(kind));
    std::unique_ptr<ComplexDatabase> db;
    ASSERT_TRUE(BuildDatabase(spec, &db).ok());
    ObjService service(db.get(), kind, StrategyOptions{});
    Request req;
    req.verb = Verb::kRetrieve;
    req.flags = kReqFlagProfile;
    req.lo_parent = 0;
    req.num_top = spec.num_parents;
    req.attr_index = 0;
    const IoTagBreakdown volume_before = db->disk->breakdown();
    const IoTagBreakdown thread_before = CurrentThreadIoTags();
    Response resp = service.Execute(req);
    const IoTagBreakdown thread = CurrentThreadIoTags() - thread_before;
    const IoTagBreakdown volume = db->disk->breakdown() - volume_before;
    ASSERT_EQ(resp.status, RespStatus::kOk) << resp.error;
    for (size_t i = 0; i < kNumIoTags; ++i) {
      SCOPED_TRACE(IoTagName(static_cast<IoTag>(i)));
      EXPECT_EQ(thread.reads[i], volume.reads[i]);
      EXPECT_EQ(thread.writes[i], volume.writes[i]);
    }
    EXPECT_GT(volume.reads_for(IoTag::kPrefetch), 0u);

    const std::string& p = resp.profile_json;
    EXPECT_EQ(IntAfter(p, "total_reads"),
              static_cast<int64_t>(volume.total_reads())) << p;
    size_t prefetch_at = p.find("\"prefetch\":{");
    ASSERT_NE(prefetch_at, std::string::npos) << p;
    EXPECT_EQ(IntAfter(p, "reads", prefetch_at),
              static_cast<int64_t>(volume.reads_for(IoTag::kPrefetch))) << p;
  }
}

TEST(NetProfileTest, ShardedProfileReportsLockWait) {
  // A 2-shard 2PL engine: every sub-query takes its table locks through
  // the executor, which bills the wait into the installed profile.
  DatabaseSpec spec = ShardedMvccSpec();
  spec.enable_mvcc = false;
  for (StrategyKind kind : kProfiledStrategies) {
    SCOPED_TRACE(StrategyKindName(kind));
    std::unique_ptr<shard::ShardedDatabase> sdb;
    ASSERT_TRUE(shard::BuildShardedDatabase(spec, 2, &sdb).ok());
    shard::ShardedEngine engine(sdb.get(), StrategyOptions{});
    ObjService service(&engine, kind, StrategyOptions{});

    // An updater holds X on a child relation of shard 1. On the fan-out
    // paths it also holds shard 0's, so the caller blocks on shard 0 while
    // a helper claims shard 1 and blocks there; the point-wise path blocks
    // on the calling thread.
    const bool fans_out = kind != StrategyKind::kDfs;
    const LockId rel0 = sdb->shards[0]->child_rels[0]->rel_id();
    const LockId rel1 = sdb->shards[1]->child_rels[0]->rel_id();
    engine.lock_manager(1)->Acquire(rel1, LockMode::kExclusive);
    if (fans_out) engine.lock_manager(0)->Acquire(rel0, LockMode::kExclusive);
    Counter* helper_runs = MetricsRegistry::Global().GetCounter(
        "shard.fanout_helper_subqueries");
    const uint64_t helped_before = helper_runs->value();
    const auto sent = std::chrono::steady_clock::now();
    Response resp;
    std::thread reader([&] {
      Request req;
      req.verb = Verb::kRetrieve;
      req.flags = kReqFlagProfile;
      req.lo_parent = 0;
      req.num_top = spec.num_parents;
      req.attr_index = 0;
      resp = service.Execute(req);
    });
    // The caller waits on shard 0 for at most `caller_wait`; the helper
    // then waits on shard 1 for `hold` more, four times as long. Without
    // the helper's wait merged in, lock_wait_us could not reach hold / 2.
    auto hold = std::chrono::milliseconds(50);
    if (fans_out) {
      while (helper_runs->value() == helped_before) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      engine.lock_manager(0)->Release(rel0, LockMode::kExclusive);
      const auto caller_wait = std::chrono::duration_cast<
          std::chrono::milliseconds>(std::chrono::steady_clock::now() - sent);
      hold = std::max(hold, 4 * caller_wait);
    }
    std::this_thread::sleep_for(hold);
    engine.lock_manager(1)->Release(rel1, LockMode::kExclusive);
    reader.join();

    ASSERT_EQ(resp.status, RespStatus::kOk) << resp.error;
    ASSERT_FALSE(resp.profile_json.empty());
    EXPECT_GT(IntAfter(resp.profile_json, "lock_wait_us"), 0)
        << resp.profile_json;
    if (fans_out) {
      EXPECT_GE(IntAfter(resp.profile_json, "lock_wait_us"),
                std::chrono::duration_cast<std::chrono::microseconds>(hold)
                        .count() / 2)
          << resp.profile_json;
    }
  }
}

TEST(NetProfileTest, ProfileRidesTheWireAndCarriesTheFrameTraceId) {
  DatabaseSpec spec = ShardedMvccSpec();
  spec.enable_mvcc = false;  // plain single-db server
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  ObjServer server(db.get(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  ObjClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<int32_t> values;
  std::string profile;
  ASSERT_TRUE(
      client.RetrieveProfiled(0, 16, 0, &values, &profile).ok());
  EXPECT_FALSE(values.empty());
  ASSERT_FALSE(profile.empty());
  // The client minted a trace id, sent it in the frame header, and the
  // worker stamped the same id into the profile: one identity end to end.
  EXPECT_NE(client.last_trace_id(), 0u);
  EXPECT_EQ(static_cast<uint64_t>(IntAfter(profile, "trace_id")),
            client.last_trace_id())
      << profile;
  EXPECT_NE(profile.find("\"verb\":\"retrieve\""), std::string::npos)
      << profile;

  // An un-flagged retrieve pays none of this: no profile in the response.
  Request plain;
  plain.verb = Verb::kRetrieve;
  plain.lo_parent = 0;
  plain.num_top = 4;
  plain.attr_index = 0;
  Response resp;
  ASSERT_TRUE(client.Call(plain, &resp).ok());
  EXPECT_TRUE(resp.profile_json.empty());
  server.Stop();
}

TEST(NetProfileTest, StatsHeatRanksTheHotParentUnderSkewedLoad) {
  std::unique_ptr<shard::ShardedDatabase> sdb;
  ASSERT_TRUE(
      shard::BuildShardedDatabase(ShardedMvccSpec(), 2, &sdb).ok());
  shard::ShardedEngine engine(sdb.get(), StrategyOptions{});
  ObjServer server(&engine, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  HeatMap::Global().Reset();
  ObjClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // Skew: parent 3 is retrieved 20x, everything else once.
  std::vector<int32_t> values;
  for (int i = 0; i < 20; ++i) {
    values.clear();
    ASSERT_TRUE(client.Retrieve(3, 1, 0, &values).ok());
  }
  ASSERT_TRUE(client.Retrieve(40, 1, 0, &values).ok());
  std::string stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  // The global ranking leads with the hot parent...
  size_t heat_at = stats.find("\"heat\":{");
  ASSERT_NE(heat_at, std::string::npos) << stats;
  EXPECT_NE(stats.find("\"top_parents\":[{\"parent\":3,", heat_at),
            std::string::npos)
      << stats;
  // ...and the per-shard section routes it to its owning shard.
  size_t shards_at = stats.find("\"shards\":[");
  ASSERT_NE(shards_at, std::string::npos) << stats;
  EXPECT_NE(stats.find("\"hot_parents\":[", shards_at), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("{\"parent\":3,", shards_at), std::string::npos)
      << stats;
  server.Stop();
  HeatMap::Global().Reset();
}

TEST(NetProfileTest, UnknownFlagBitsAreRejectedAtDecode) {
  Request req;
  req.verb = Verb::kRetrieve;
  req.flags = 0x80;  // not a defined kReqFlag* bit
  req.num_top = 1;
  std::string payload = EncodeRequest(req);
  Request back;
  Status s = DecodeRequest(payload, &back);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(NetProfileTest, SlowQueryRingSurfacesThroughStats) {
  DatabaseSpec spec = ShardedMvccSpec();
  spec.enable_mvcc = false;
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  ServerConfig config;
  config.slow_query_us = 1;  // everything is slow: the ring must fill
  ObjServer server(db.get(), config);
  ASSERT_TRUE(server.Start().ok());

  ObjClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<int32_t> values;
  for (int i = 0; i < 3; ++i) {
    values.clear();
    ASSERT_TRUE(client.Retrieve(0, 8, 0, &values).ok());
  }
  std::string stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_NE(stats.find("\"slow_queries\":{\"threshold_us\":1"),
            std::string::npos)
      << stats;
  EXPECT_GE(IntAfter(stats, "captured"), 3) << stats;
  // The captured entries are whole profiles, ready to explain the
  // latency after the fact.
  size_t entries_at = stats.find("\"entries\":[");
  ASSERT_NE(entries_at, std::string::npos) << stats;
  EXPECT_NE(stats.find("\"total_us\":", entries_at), std::string::npos)
      << stats;
  server.Stop();

  // Leave the global ring disarmed for other tests in this binary.
  SlowQueryRing::Global().set_threshold_us(0);
  SlowQueryRing::Global().Clear();
}

}  // namespace
}  // namespace net
}  // namespace objrep
