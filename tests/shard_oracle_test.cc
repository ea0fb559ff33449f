// Sharded-vs-single differential oracle (DESIGN.md §14): for randomized
// database specs and randomized retrieve/update sequences, a ShardedEngine
// over 2..4 shards must return exactly what one engine over one database
// returns — the partitioning, replication, scatter-gather routing, and
// cross-shard update fan-out must be invisible in the answers. The
// 1-shard engine that borrows a database (how the server fronts one) runs
// alongside and must match direct execution in answers and per-query I/O.
//
// The point-wise and sorted-merge strategy families promise the single
// engine's *sequence* (values and OIDs in order); SMART and ADAPTIVE
// concatenate per-shard runs in shard order, which is cache-state
// dependent, so they promise the same (OID, value) multiset.
//
// A second test crashes one shard mid-update, recovers just that shard,
// replays the failed query (updates are absolute, hence idempotent across
// the holder fan-out), and requires the sharded store to converge to the
// single engine's final state.
//
// A concurrent test drives one 4-shard engine from many threads at once,
// so scatter-gather sub-queries overlap on the engine's helper pool, and
// then faults one shard's reads: the retrieve must return that error and
// the engine must keep serving.
//
// Seeds default to 10; the nightly sweep sets OBJREP_SHARD_SEEDS higher.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/strategy.h"
#include "objstore/database.h"
#include "objstore/workload.h"
#include "mvcc/apply.h"
#include "mvcc/engine.h"
#include "shard/engine.h"
#include "shard/sharded_db.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "util/random.h"

namespace objrep {
namespace {

constexpr StrategyKind kAllStrategies[] = {
    StrategyKind::kDfs,          StrategyKind::kBfs,
    StrategyKind::kBfsNoDup,     StrategyKind::kDfsCache,
    StrategyKind::kDfsClust,     StrategyKind::kSmart,
    StrategyKind::kDfsClustCache, StrategyKind::kBfsJoinIndex,
    StrategyKind::kBfsHash,
};

/// Strategies whose sharded execution reproduces the single engine's
/// output order: point-wise routing preserves the parent order, and the
/// sorted K-way merge reproduces the OID-sorted stream.
bool SequenceExact(StrategyKind kind) {
  return kind != StrategyKind::kSmart && kind != StrategyKind::kAdaptive;
}

int NumSeeds() {
  const char* env = std::getenv("OBJREP_SHARD_SEEDS");
  if (env != nullptr) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 10;
}

/// Random spec satisfying every Validate() divisibility constraint, with
/// every optional structure on so all nine strategies (and ADAPTIVE's
/// plans) are buildable on every shard.
DatabaseSpec RandomSpec(uint64_t seed) {
  Rng rng(seed * 2654435761u + 29);
  DatabaseSpec spec;
  const uint32_t uses[] = {1, 2, 5};
  spec.use_factor = uses[rng.Uniform(3)];
  spec.overlap_factor = 1 + static_cast<uint32_t>(rng.Uniform(2));
  spec.size_unit = 2 + static_cast<uint32_t>(rng.Uniform(6));
  spec.num_child_rels = 1 + static_cast<uint32_t>(rng.Uniform(2));
  uint32_t m = 8 + static_cast<uint32_t>(rng.Uniform(25));
  spec.num_parents =
      spec.use_factor * spec.overlap_factor * spec.num_child_rels * m;
  spec.buffer_pages = 40 + static_cast<uint32_t>(rng.Uniform(60));
  spec.build_cache = true;
  spec.size_cache = 8 + static_cast<uint32_t>(rng.Uniform(24));
  spec.cache_buckets = 16;
  spec.build_cluster = true;
  spec.build_join_index = true;
  spec.enable_wal = true;
  spec.seed = seed + 4000;
  return spec;
}

/// Random query mix. Update targets are globally distinct with distinct
/// markers so any committed prefix is identifiable from content.
std::vector<Query> RandomQueries(uint64_t seed, const ComplexDatabase& db) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  const uint32_t num_parents = db.spec.num_parents;
  const uint32_t children_per_rel =
      db.spec.num_children_total() / db.spec.num_child_rels;
  std::set<uint64_t> used;
  std::vector<Query> qs;
  uint32_t updates = 0;
  const uint32_t n = 8 + static_cast<uint32_t>(rng.Uniform(5));
  for (uint32_t i = 0; i < n; ++i) {
    Query q;
    if (rng.Bernoulli(0.4)) {
      q.kind = Query::Kind::kUpdate;
      uint32_t batch = 1 + static_cast<uint32_t>(rng.Uniform(3));
      for (uint32_t b = 0; b < batch; ++b) {
        for (int tries = 0; tries < 64; ++tries) {
          uint32_t r =
              static_cast<uint32_t>(rng.Uniform(db.spec.num_child_rels));
          uint32_t k = static_cast<uint32_t>(rng.Uniform(children_per_rel));
          Oid oid{db.child_rels[r]->rel_id(), k};
          if (used.insert(oid.Packed()).second) {
            q.update_targets.push_back(oid);
            break;
          }
        }
      }
      if (q.update_targets.empty()) continue;
      q.new_ret1 = static_cast<int32_t>(3000000 + updates);
      ++updates;
    } else {
      q.kind = Query::Kind::kRetrieve;
      q.num_top = 1 + static_cast<uint32_t>(
                          rng.Uniform(std::min(num_parents, 20u)));
      q.lo_parent =
          static_cast<uint32_t>(rng.Uniform(num_parents - q.num_top + 1));
      q.attr_index = static_cast<int>(rng.Uniform(3));
    }
    qs.push_back(std::move(q));
  }
  return qs;
}

/// Runs one query on the single engine with the runner's transaction
/// protocol (the ShardedEngine brackets its own per-shard transactions).
Status RunSingle(Strategy* strategy, ComplexDatabase* db, const Query& q,
                 RetrieveResult* result) {
  if (q.kind == Query::Kind::kRetrieve) {
    return strategy->ExecuteRetrieve(q, result);
  }
  OBJREP_RETURN_NOT_OK(db->pool->BeginTxn());
  Status s = strategy->ExecuteUpdate(q);
  if (s.ok()) return db->pool->CommitTxn();
  db->pool->AbortTxn();
  return s;
}

std::multiset<std::pair<uint64_t, int32_t>> Pairs(
    const RetrieveResult& r) {
  std::multiset<std::pair<uint64_t, int32_t>> out;
  for (size_t i = 0; i < r.values.size(); ++i) {
    out.insert({r.oids[i].Packed(), r.values[i]});
  }
  return out;
}

void ExpectSameAnswer(StrategyKind kind, const RetrieveResult& single,
                      const RetrieveResult& sharded) {
  ASSERT_EQ(single.values.size(), single.oids.size());
  ASSERT_EQ(sharded.values.size(), sharded.oids.size());
  if (SequenceExact(kind)) {
    EXPECT_EQ(single.values, sharded.values) << StrategyKindName(kind);
    ASSERT_EQ(single.oids.size(), sharded.oids.size())
        << StrategyKindName(kind);
    for (size_t i = 0; i < single.oids.size(); ++i) {
      EXPECT_EQ(single.oids[i].Packed(), sharded.oids[i].Packed())
          << StrategyKindName(kind) << " position " << i;
      if (::testing::Test::HasFailure()) return;
    }
  } else {
    EXPECT_EQ(Pairs(single), Pairs(sharded)) << StrategyKindName(kind);
  }
}

TEST(ShardOracleTest, ShardedMatchesSingleEngineOnRandomizedWorkloads) {
  const int seeds = NumSeeds();
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DatabaseSpec spec = RandomSpec(static_cast<uint64_t>(seed));
    ASSERT_TRUE(spec.Validate().ok());
    const uint32_t num_shards = 2 + static_cast<uint32_t>(seed % 3);

    std::vector<Query> queries;
    {
      std::unique_ptr<ComplexDatabase> proto;
      ASSERT_TRUE(BuildDatabase(spec, &proto).ok());
      queries = RandomQueries(static_cast<uint64_t>(seed), *proto);
    }

    for (StrategyKind kind : kAllStrategies) {
      SCOPED_TRACE(StrategyKindName(kind));
      // Fresh stores per strategy on both sides: updates are translated
      // into each strategy's own representation.
      std::unique_ptr<ComplexDatabase> db;
      ASSERT_TRUE(BuildDatabase(spec, &db).ok());
      std::unique_ptr<Strategy> strategy;
      ASSERT_TRUE(
          MakeStrategy(kind, db.get(), StrategyOptions{}, &strategy).ok());

      std::unique_ptr<shard::ShardedDatabase> sdb;
      ASSERT_TRUE(
          shard::BuildShardedDatabase(spec, num_shards, &sdb).ok());
      shard::ShardedEngine engine(sdb.get(), StrategyOptions{});

      // The 1-shard engine borrowing its own copy of the database: its
      // physical layout is the single engine's, so it must match direct
      // execution in answer sequence and in per-query I/O, exactly.
      std::unique_ptr<ComplexDatabase> db1;
      ASSERT_TRUE(BuildDatabase(spec, &db1).ok());
      shard::ShardedEngine one_shard(db1.get(), StrategyOptions{});

      for (const Query& q : queries) {
        const IoCounters single_before = db->disk->counters();
        const IoCounters one_before = db1->disk->counters();
        if (q.kind == Query::Kind::kRetrieve) {
          RetrieveResult single, sharded, one;
          ASSERT_TRUE(RunSingle(strategy.get(), db.get(), q, &single).ok());
          ASSERT_TRUE(engine.ExecuteRetrieve(kind, q, &sharded).ok());
          ASSERT_TRUE(one_shard.ExecuteRetrieve(kind, q, &one).ok());
          ExpectSameAnswer(kind, single, sharded);
          ExpectSameAnswer(kind, single, one);
          EXPECT_EQ(single.values, one.values);
        } else {
          RetrieveResult ignored;
          ASSERT_TRUE(RunSingle(strategy.get(), db.get(), q, &ignored).ok());
          ASSERT_TRUE(engine.ExecuteUpdate(kind, q).ok());
          ASSERT_TRUE(one_shard.ExecuteUpdate(kind, q).ok());
        }
        EXPECT_EQ((db->disk->counters() - single_before).total(),
                  (db1->disk->counters() - one_before).total());
        if (HasFailure()) return;
      }
    }
  }
}

TEST(ShardOracleTest, OneShardCrashRecoveryConvergesToSingleEngine) {
  const int seeds = NumSeeds();
  int crashed_runs = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DatabaseSpec spec = RandomSpec(static_cast<uint64_t>(seed));
    const uint32_t num_shards = 2 + static_cast<uint32_t>(seed % 3);
    StrategyKind kind =
        kAllStrategies[static_cast<size_t>(seed) % std::size(kAllStrategies)];
    SCOPED_TRACE(StrategyKindName(kind));

    // The single engine runs the whole sequence cleanly: the final state
    // the recovered sharded store must converge to.
    std::unique_ptr<ComplexDatabase> db;
    ASSERT_TRUE(BuildDatabase(spec, &db).ok());
    std::vector<Query> queries =
        RandomQueries(static_cast<uint64_t>(seed), *db);
    std::unique_ptr<Strategy> strategy;
    ASSERT_TRUE(
        MakeStrategy(kind, db.get(), StrategyOptions{}, &strategy).ok());
    for (const Query& q : queries) {
      RetrieveResult ignored;
      ASSERT_TRUE(RunSingle(strategy.get(), db.get(), q, &ignored).ok());
    }

    std::unique_ptr<shard::ShardedDatabase> sdb;
    ASSERT_TRUE(shard::BuildShardedDatabase(spec, num_shards, &sdb).ok());
    shard::ShardedEngine engine(sdb.get(), StrategyOptions{});
    const uint32_t victim = static_cast<uint32_t>(seed) % num_shards;
    sdb->shards[victim]->disk->fault_injector()->ArmCrash(
        "update.child", 1 + static_cast<uint32_t>(seed % 2));

    for (const Query& q : queries) {
      Status s;
      if (q.kind == Query::Kind::kRetrieve) {
        RetrieveResult ignored;
        s = engine.ExecuteRetrieve(kind, q, &ignored);
      } else {
        s = engine.ExecuteUpdate(kind, q);
      }
      if (s.ok()) continue;
      // Only the armed shard may fail, and only by crashing.
      ASSERT_TRUE(sdb->shards[victim]->disk->fault_injector()->crashed())
          << "non-crash failure: " << s.ToString();
      ++crashed_runs;
      RecoveryReport rep;
      ASSERT_TRUE(RecoverDatabase(sdb->shards[victim].get(), &rep).ok());
      // Replay the failed query: updates write absolute values, so the
      // holder shards that committed before the crash absorb the replay
      // idempotently and the recovered shard catches up.
      if (q.kind == Query::Kind::kRetrieve) {
        RetrieveResult ignored;
        ASSERT_TRUE(engine.ExecuteRetrieve(kind, q, &ignored).ok());
      } else {
        ASSERT_TRUE(engine.ExecuteUpdate(kind, q).ok());
      }
    }

    // Full-scan convergence check against the single engine.
    Query scan;
    scan.kind = Query::Kind::kRetrieve;
    scan.lo_parent = 0;
    scan.num_top = spec.num_parents;
    scan.attr_index = 0;
    RetrieveResult single, sharded;
    ASSERT_TRUE(strategy->ExecuteRetrieve(scan, &single).ok());
    ASSERT_TRUE(engine.ExecuteRetrieve(kind, scan, &sharded).ok());
    ExpectSameAnswer(kind, single, sharded);
    if (HasFailure()) return;
  }
  // The sweep is vacuous if no seed actually crashed a shard.
  EXPECT_GE(crashed_runs, 1) << "no run crashed the armed shard";
}

// --- Concurrent scatter-gather (DESIGN.md §14) ---------------------------

TEST(ShardOracleTest, ConcurrentFanOutMatchesSingleEngineAndSurfacesFaults) {
  constexpr StrategyKind kFanOutKinds[] = {
      StrategyKind::kBfs, StrategyKind::kBfsNoDup, StrategyKind::kAdaptive};
  constexpr size_t kNumKinds = std::size(kFanOutKinds);
  constexpr uint32_t kNumShards = 4;
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kPerThread = 9;
  const DatabaseSpec spec = RandomSpec(5);

  // Retrieves only, plus the full scan the fault phase reruns.
  Rng rng(97);
  std::vector<Query> queries;
  for (int i = 0; i < 12; ++i) {
    Query q;
    q.kind = Query::Kind::kRetrieve;
    q.num_top = 1 + static_cast<uint32_t>(rng.Uniform(spec.num_parents));
    q.lo_parent = static_cast<uint32_t>(
        rng.Uniform(spec.num_parents - q.num_top + 1));
    q.attr_index = static_cast<int>(rng.Uniform(3));
    queries.push_back(q);
  }
  Query scan;
  scan.kind = Query::Kind::kRetrieve;
  scan.lo_parent = 0;
  scan.num_top = spec.num_parents;
  scan.attr_index = 0;
  queries.push_back(scan);
  const size_t scan_index = queries.size() - 1;

  // Single-engine answers, one strategy per kind.
  std::vector<std::vector<RetrieveResult>> expected(kNumKinds);
  {
    std::unique_ptr<ComplexDatabase> db;
    ASSERT_TRUE(BuildDatabase(spec, &db).ok());
    for (size_t i = 0; i < kNumKinds; ++i) {
      std::unique_ptr<Strategy> strategy;
      ASSERT_TRUE(MakeStrategy(kFanOutKinds[i], db.get(), StrategyOptions{},
                               &strategy)
                      .ok());
      expected[i].resize(queries.size());
      for (size_t j = 0; j < queries.size(); ++j) {
        ASSERT_TRUE(strategy->ExecuteRetrieve(queries[j], &expected[i][j])
                        .ok());
      }
    }
  }

  std::unique_ptr<shard::ShardedDatabase> sdb;
  ASSERT_TRUE(shard::BuildShardedDatabase(spec, kNumShards, &sdb).ok());
  shard::ShardedEngine engine(sdb.get(), StrategyOptions{});

  // Every thread mixes the three kinds over the query list; answers are
  // checked on this thread after the join.
  struct Outcome {
    size_t kind = 0;
    size_t query = 0;
    Status status;
    RetrieveResult result;
  };
  std::vector<std::vector<Outcome>> outcomes(kThreads);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t i = 0; i < kPerThread; ++i) {
        Outcome o;
        o.kind = (t + i) % kNumKinds;
        o.query = (5 * t + i) % queries.size();
        o.status = engine.ExecuteRetrieve(kFanOutKinds[o.kind],
                                          queries[o.query], &o.result);
        outcomes[t].push_back(std::move(o));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::vector<Outcome>& per_thread : outcomes) {
    for (const Outcome& o : per_thread) {
      SCOPED_TRACE("query " + std::to_string(o.query));
      ASSERT_TRUE(o.status.ok()) << o.status.ToString();
      ExpectSameAnswer(kFanOutKinds[o.kind], expected[o.kind][o.query],
                       o.result);
      if (HasFailure()) return;
    }
  }

  // A read fault on the last shard — a sub-query normally run by a helper
  // — is the retrieve's error, and the next retrieve succeeds.
  ComplexDatabase* victim = sdb->shards[kNumShards - 1].get();
  for (size_t i = 0; i < kNumKinds; ++i) {
    SCOPED_TRACE(StrategyKindName(kFanOutKinds[i]));
    ASSERT_TRUE(victim->pool->FlushAll().ok());
    victim->pool->InvalidateAllClean();  // the scan must read the disk
    victim->disk->fault_injector()->Configure(/*seed=*/7,
                                              /*read_fault_rate=*/1.0,
                                              /*write_fault_rate=*/0.0);
    RetrieveResult failed;
    Status s = engine.ExecuteRetrieve(kFanOutKinds[i], scan, &failed);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    victim->disk->fault_injector()->Reset();
    RetrieveResult recovered;
    s = engine.ExecuteRetrieve(kFanOutKinds[i], scan, &recovered);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ExpectSameAnswer(kFanOutKinds[i], expected[i][scan_index], recovered);
  }
}

// --- MVCC differential with crash + recovery (DESIGN.md §15) ------------
//
// The same sharded-vs-single contract under MVCC execution at a swept
// update probability: snapshot retrieves and version-store commits on a
// 4-shard store must answer exactly like the single MVCC engine, one
// shard crashes on its WAL commit path mid-run and is recovered + the
// failed query replayed, and after quiescent folds on both sides the full
// scans must agree — recovery and the replica fan-out may not lose or
// reorder any committed update.

constexpr double kMvccUpdateMix[] = {0.0, 0.1, 0.3};

/// RandomQueries with a parameterized update probability (the Figure-5
/// update-mix axis), same global-uniqueness discipline.
std::vector<Query> MvccMixQueries(uint64_t seed, const ComplexDatabase& db,
                                  double pr_update) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 47);
  const uint32_t num_parents = db.spec.num_parents;
  const uint32_t children_per_rel =
      db.spec.num_children_total() / db.spec.num_child_rels;
  std::set<uint64_t> used;
  std::vector<Query> qs;
  uint32_t updates = 0;
  const uint32_t n = 10 + static_cast<uint32_t>(rng.Uniform(5));
  for (uint32_t i = 0; i < n; ++i) {
    Query q;
    if (rng.Bernoulli(pr_update)) {
      q.kind = Query::Kind::kUpdate;
      uint32_t batch = 1 + static_cast<uint32_t>(rng.Uniform(3));
      for (uint32_t b = 0; b < batch; ++b) {
        for (int tries = 0; tries < 64; ++tries) {
          uint32_t r =
              static_cast<uint32_t>(rng.Uniform(db.spec.num_child_rels));
          uint32_t k = static_cast<uint32_t>(rng.Uniform(children_per_rel));
          Oid oid{db.child_rels[r]->rel_id(), k};
          if (used.insert(oid.Packed()).second) {
            q.update_targets.push_back(oid);
            break;
          }
        }
      }
      if (q.update_targets.empty()) continue;
      q.new_ret1 = static_cast<int32_t>(8000000 + updates);
      ++updates;
    } else {
      q.kind = Query::Kind::kRetrieve;
      q.num_top = 1 + static_cast<uint32_t>(
                          rng.Uniform(std::min(num_parents, 20u)));
      q.lo_parent =
          static_cast<uint32_t>(rng.Uniform(num_parents - q.num_top + 1));
      q.attr_index = static_cast<int>(rng.Uniform(3));
    }
    qs.push_back(std::move(q));
  }
  return qs;
}

TEST(ShardOracleTest, MvccCrashRecoveryConvergesToSingleEngine) {
  const int seeds = NumSeeds();
  constexpr uint32_t kNumShards = 4;
  int crashed_runs = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DatabaseSpec spec = RandomSpec(static_cast<uint64_t>(seed));
    spec.enable_mvcc = true;
    const double pr_update = kMvccUpdateMix[static_cast<size_t>(seed) % 3];
    StrategyKind kind =
        kAllStrategies[static_cast<size_t>(seed) % std::size(kAllStrategies)];
    SCOPED_TRACE(std::string(StrategyKindName(kind)) + " pr_update " +
                 std::to_string(pr_update));

    std::unique_ptr<ComplexDatabase> db;
    ASSERT_TRUE(BuildDatabase(spec, &db).ok());
    std::vector<Query> queries =
        MvccMixQueries(static_cast<uint64_t>(seed), *db, pr_update);
    std::unique_ptr<Strategy> strategy;
    ASSERT_TRUE(
        MakeStrategy(kind, db.get(), StrategyOptions{}, &strategy).ok());

    std::unique_ptr<shard::ShardedDatabase> sdb;
    ASSERT_TRUE(shard::BuildShardedDatabase(spec, kNumShards, &sdb).ok());
    shard::ShardedEngine engine(sdb.get(), StrategyOptions{});
    std::unique_ptr<ComplexDatabase> db1;
    ASSERT_TRUE(BuildDatabase(spec, &db1).ok());
    shard::ShardedEngine one_shard(db1.get(), StrategyOptions{});
    const uint32_t victim = static_cast<uint32_t>(seed) % kNumShards;
    // The WAL commit path fires on MVCC commits and on cache installs, so
    // both read- and write-heavy mixes can crash the victim.
    sdb->shards[victim]->disk->fault_injector()->ArmCrash(
        "wal.commit.after_sync", 1 + static_cast<uint32_t>(seed % 3));

    for (const Query& q : queries) {
      if (q.kind == Query::Kind::kRetrieve) {
        RetrieveResult single;
        ASSERT_TRUE(mvcc::SnapshotRetrieve(strategy.get(), db.get(), q,
                                           &single).ok());
        RetrieveResult sharded;
        Status s = engine.ExecuteRetrieve(kind, q, &sharded);
        if (!s.ok()) {
          ASSERT_TRUE(sdb->shards[victim]->disk->fault_injector()->crashed())
              << "non-crash failure: " << s.ToString();
          ++crashed_runs;
          RecoveryReport rep;
          ASSERT_TRUE(RecoverDatabase(sdb->shards[victim].get(), &rep).ok());
          sharded = RetrieveResult{};
          ASSERT_TRUE(engine.ExecuteRetrieve(kind, q, &sharded).ok());
        }
        ExpectSameAnswer(kind, single, sharded);
        RetrieveResult one;
        ASSERT_TRUE(one_shard.ExecuteRetrieve(kind, q, &one).ok());
        ExpectSameAnswer(kind, single, one);
      } else {
        ASSERT_TRUE(mvcc::MvccUpdate(db.get(), q).ok());
        ASSERT_TRUE(one_shard.ExecuteUpdate(kind, q).ok());
        Status s = engine.ExecuteUpdate(kind, q);
        if (!s.ok()) {
          ASSERT_TRUE(sdb->shards[victim]->disk->fault_injector()->crashed())
              << "non-crash failure: " << s.ToString();
          ++crashed_runs;
          RecoveryReport rep;
          ASSERT_TRUE(RecoverDatabase(sdb->shards[victim].get(), &rep).ok());
          // Replay: absolute values absorb idempotently on the holders
          // that committed before the crash.
          ASSERT_TRUE(engine.ExecuteUpdate(kind, q).ok());
        }
      }
      if (HasFailure()) return;
    }

    // Quiescent folds on both sides, then the scans must agree exactly.
    sdb->shards[victim]->disk->fault_injector()->ClearCrash();
    ASSERT_TRUE(mvcc::FoldMvcc(db.get()).ok());
    ASSERT_TRUE(engine.FoldAll().ok());
    ASSERT_TRUE(one_shard.FoldAll().ok());
    Query scan;
    scan.kind = Query::Kind::kRetrieve;
    scan.lo_parent = 0;
    scan.num_top = spec.num_parents;
    scan.attr_index = 0;
    RetrieveResult single, sharded, one;
    ASSERT_TRUE(strategy->ExecuteRetrieve(scan, &single).ok());
    ASSERT_TRUE(engine.ExecuteRetrieve(kind, scan, &sharded).ok());
    ASSERT_TRUE(one_shard.ExecuteRetrieve(kind, scan, &one).ok());
    ExpectSameAnswer(kind, single, sharded);
    ExpectSameAnswer(kind, single, one);
    if (HasFailure()) return;
  }
  EXPECT_GE(crashed_runs, 1) << "no run crashed the armed shard";
}

}  // namespace
}  // namespace objrep
