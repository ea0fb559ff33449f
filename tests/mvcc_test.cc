// Unit coverage for the MVCC core (DESIGN.md §15): version visibility,
// first-committer-wins conflicts, the fold/recovery contract, and the
// crash-consistency of the kMvccUpdate WAL record.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mvcc/apply.h"
#include "mvcc/engine.h"
#include "mvcc/version_store.h"
#include "objstore/database.h"
#include "objstore/workload.h"
#include "storage/fault_injector.h"

namespace objrep {
namespace {

DatabaseSpec SmallSpec(bool mvcc = true) {
  DatabaseSpec spec;
  spec.num_parents = 32;
  spec.size_unit = 4;
  spec.use_factor = 1;
  spec.overlap_factor = 1;
  spec.num_child_rels = 1;
  spec.buffer_pages = 64;
  spec.enable_wal = true;
  spec.enable_mvcc = mvcc;
  spec.seed = 42;
  return spec;
}

TEST(MvccManagerTest, VisibilityFollowsCommitOrder) {
  MvccManager mgr(nullptr);
  EXPECT_EQ(mgr.clock(), 0u);

  uint64_t ts1 = 0, ts2 = 0;
  ASSERT_TRUE(mgr.CommitUpdate(mgr.clock(), {7}, 100, &ts1).ok());
  ASSERT_TRUE(mgr.CommitUpdate(mgr.clock(), {7}, 200, &ts2).ok());
  ASSERT_LT(ts1, ts2);

  int32_t v = 0;
  EXPECT_FALSE(mgr.ReadVisible(7, ts1 - 1, &v));  // predates every version
  ASSERT_TRUE(mgr.ReadVisible(7, ts1, &v));
  EXPECT_EQ(v, 100);
  ASSERT_TRUE(mgr.ReadVisible(7, ts2, &v));
  EXPECT_EQ(v, 200);
  EXPECT_FALSE(mgr.ReadVisible(8, ts2, &v));  // never updated
}

TEST(MvccManagerTest, FirstCommitterWinsOnOverlap) {
  MvccManager mgr(nullptr);
  const uint64_t begin = mgr.clock();
  uint64_t ts = 0;
  ASSERT_TRUE(mgr.CommitUpdate(begin, {1, 2}, 10, &ts).ok());
  // A transaction that began before that commit and overlaps it loses.
  Status s = mgr.CommitUpdate(begin, {2, 3}, 20, &ts);
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(mgr.stats().conflicts, 1u);
  // Disjoint targets from the same stale timestamp are fine.
  EXPECT_TRUE(mgr.CommitUpdate(begin, {3, 4}, 30, &ts).ok());
  // And the loser succeeds after refreshing its begin timestamp.
  EXPECT_TRUE(mgr.CommitUpdate(mgr.clock(), {2, 3}, 40, &ts).ok());
}

TEST(MvccManagerTest, SnapshotPinsItsVersionAcrossGc) {
  MvccManager mgr(nullptr);
  uint64_t ts = 0;
  ASSERT_TRUE(mgr.CommitUpdate(mgr.clock(), {5}, 1, &ts).ok());
  MvccManager::Snapshot snap = mgr.BeginSnapshot();
  for (int i = 2; i <= 10; ++i) {
    ASSERT_TRUE(mgr.CommitUpdate(mgr.clock(), {5}, i, &ts).ok());
  }
  mgr.RunGc();
  // Chain bound: newest + the snapshot's pinned version.
  EXPECT_LE(mgr.live_versions(), 2u);
  int32_t v = 0;
  ASSERT_TRUE(mgr.ReadVisible(5, snap.ts(), &v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(mgr.ReadVisible(5, mgr.clock(), &v));
  EXPECT_EQ(v, 10);
}

TEST(MvccManagerTest, FoldDrainsChainsAndResetKeepsClock) {
  MvccManager mgr(nullptr);
  uint64_t ts = 0;
  ASSERT_TRUE(mgr.CommitUpdate(mgr.clock(), {1}, 10, &ts).ok());
  ASSERT_TRUE(mgr.CommitUpdate(mgr.clock(), {1, 2}, 20, &ts).ok());
  MvccManager::Folded folded = mgr.TakeCommittedForFold();
  ASSERT_EQ(folded.newest.size(), 2u);  // newest per chain, not per commit
  EXPECT_EQ(folded.newest[0], (std::pair<uint64_t, int32_t>{1, 20}));
  EXPECT_EQ(folded.newest[1], (std::pair<uint64_t, int32_t>{2, 20}));
  EXPECT_EQ(mgr.live_versions(), 0u);

  const uint64_t clock = mgr.clock();
  mgr.ResetForRecovery(clock);
  EXPECT_EQ(mgr.clock(), clock);
  uint64_t ts2 = 0;
  ASSERT_TRUE(mgr.CommitUpdate(mgr.clock(), {1}, 30, &ts2).ok());
  EXPECT_GT(ts2, clock);  // timestamps stay monotonic across the reset
}

TEST(MvccEngineTest, SnapshotRetrieveOverlaysOnlyRet1) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(SmallSpec(), &db).ok());
  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(
      MakeStrategy(StrategyKind::kDfs, db.get(), StrategyOptions{},
                   &strategy).ok());

  Query up;
  up.kind = Query::Kind::kUpdate;
  up.update_targets = {db->units[db->unit_of_parent[0]][0]};
  up.new_ret1 = 777001;
  ASSERT_TRUE(mvcc::MvccUpdate(db.get(), up).ok());

  Query q;
  q.kind = Query::Kind::kRetrieve;
  q.lo_parent = 0;
  q.num_top = 1;
  q.attr_index = 0;
  RetrieveResult r0;
  uint64_t read_ts = 0;
  ASSERT_TRUE(
      mvcc::SnapshotRetrieve(strategy.get(), db.get(), q, &r0, &read_ts).ok());
  EXPECT_EQ(read_ts, db->mvcc->clock());
  bool saw = false;
  for (size_t i = 0; i < r0.oids.size(); ++i) {
    if (r0.oids[i].Packed() == up.update_targets[0].Packed()) {
      EXPECT_EQ(r0.values[i], 777001);
      saw = true;
    }
  }
  EXPECT_TRUE(saw);

  // ret2 reads the frozen base — no overlay.
  q.attr_index = 1;
  RetrieveResult r1;
  ASSERT_TRUE(mvcc::SnapshotRetrieve(strategy.get(), db.get(), q, &r1).ok());
  const Oid& target = up.update_targets[0];
  for (size_t i = 0; i < r1.oids.size(); ++i) {
    if (r1.oids[i].Packed() == target.Packed()) {
      EXPECT_EQ(r1.values[i], db->child_rows[0][target.key].ret2);
    }
  }
}

TEST(MvccEngineTest, FoldMakesUpdatesVisibleToPlainScan) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(SmallSpec(), &db).ok());
  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(
      MakeStrategy(StrategyKind::kDfs, db.get(), StrategyOptions{},
                   &strategy).ok());

  const Oid target = db->units[db->unit_of_parent[0]][0];
  Query up;
  up.kind = Query::Kind::kUpdate;
  up.update_targets = {target};
  up.new_ret1 = 777002;
  ASSERT_TRUE(mvcc::MvccUpdate(db.get(), up).ok());

  // Before the fold the base still holds the generated value...
  Query q;
  q.kind = Query::Kind::kRetrieve;
  q.lo_parent = 0;
  q.num_top = 1;
  q.attr_index = 0;
  RetrieveResult before;
  ASSERT_TRUE(strategy->ExecuteRetrieve(q, &before).ok());
  for (size_t i = 0; i < before.oids.size(); ++i) {
    if (before.oids[i].Packed() == target.Packed()) {
      EXPECT_EQ(before.values[i], db->child_rows[0][target.key].ret1);
    }
  }
  // ...and after it, the committed version, with the chains drained.
  ASSERT_TRUE(mvcc::FoldMvcc(db.get()).ok());
  EXPECT_EQ(db->mvcc->live_versions(), 0u);
  RetrieveResult after;
  ASSERT_TRUE(strategy->ExecuteRetrieve(q, &after).ok());
  bool saw = false;
  for (size_t i = 0; i < after.oids.size(); ++i) {
    if (after.oids[i].Packed() == target.Packed()) {
      EXPECT_EQ(after.values[i], 777002);
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

TEST(MvccRecoveryTest, CrashAtCommitSyncRecoversCommittedPrefix) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(SmallSpec(), &db).ok());
  const Oid t0 = db->units[db->unit_of_parent[0]][0];

  Query up;
  up.kind = Query::Kind::kUpdate;
  up.update_targets = {t0};
  up.new_ret1 = 888001;
  ASSERT_TRUE(mvcc::MvccUpdate(db.get(), up).ok());

  // The second commit crashes after its log record became durable: it is
  // committed, though its versions never reached the store.
  db->disk->fault_injector()->ArmCrash("wal.commit.after_sync");
  up.new_ret1 = 888002;
  Status s = mvcc::MvccUpdate(db.get(), up);
  ASSERT_FALSE(s.ok());
  ASSERT_TRUE(db->disk->fault_injector()->crashed());

  RecoveryReport rep;
  ASSERT_TRUE(RecoverDatabase(db.get(), &rep).ok());
  EXPECT_EQ(rep.mvcc_txns_redone, 2u);

  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(
      MakeStrategy(StrategyKind::kDfs, db.get(), StrategyOptions{},
                   &strategy).ok());
  Query q;
  q.kind = Query::Kind::kRetrieve;
  q.lo_parent = 0;
  q.num_top = 1;
  q.attr_index = 0;
  RetrieveResult r;
  ASSERT_TRUE(strategy->ExecuteRetrieve(q, &r).ok());
  bool saw = false;
  for (size_t i = 0; i < r.oids.size(); ++i) {
    if (r.oids[i].Packed() == t0.Packed()) {
      EXPECT_EQ(r.values[i], 888002);
      saw = true;
    }
  }
  EXPECT_TRUE(saw);

  // Timestamps continue past the recovered clock.
  uint64_t ts = 0;
  up.new_ret1 = 888003;
  ASSERT_TRUE(mvcc::MvccUpdate(db.get(), up, &ts).ok());
  EXPECT_GE(ts, 3u);
}

TEST(MvccRecoveryTest, CrashBeforeSyncLosesTheInFlightCommit) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(SmallSpec(), &db).ok());
  const Oid t0 = db->units[db->unit_of_parent[0]][0];

  db->disk->fault_injector()->ArmCrash("wal.commit.before_sync");
  Query up;
  up.kind = Query::Kind::kUpdate;
  up.update_targets = {t0};
  up.new_ret1 = 889001;
  Status s = mvcc::MvccUpdate(db.get(), up);
  ASSERT_FALSE(s.ok());
  ASSERT_TRUE(db->disk->fault_injector()->crashed());

  RecoveryReport rep;
  ASSERT_TRUE(RecoverDatabase(db.get(), &rep).ok());
  EXPECT_EQ(rep.mvcc_txns_redone, 0u);

  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(
      MakeStrategy(StrategyKind::kDfs, db.get(), StrategyOptions{},
                   &strategy).ok());
  Query q;
  q.kind = Query::Kind::kRetrieve;
  q.lo_parent = 0;
  q.num_top = 1;
  q.attr_index = 0;
  RetrieveResult r;
  ASSERT_TRUE(strategy->ExecuteRetrieve(q, &r).ok());
  for (size_t i = 0; i < r.oids.size(); ++i) {
    if (r.oids[i].Packed() == t0.Packed()) {
      EXPECT_EQ(r.values[i], db->child_rows[0][t0.key].ret1);
    }
  }
}

// Under served MVCC a DFSCACHE install is a page transaction that runs
// while earlier MVCC commits wait for a fold; their records sit in
// different WAL logs. A crash inside the install's commit — after its
// commit record is durable, or with that sync torn — must still redo the
// open MVCC commit, and redo the install only when its commit survived.
TEST(MvccRecoveryTest, CrashInCacheInstallAfterAnOpenMvccCommit) {
  for (const char* point : {"wal.applied.before_sync", "wal.sync.torn"}) {
    SCOPED_TRACE(point);
    DatabaseSpec spec = SmallSpec();
    spec.build_cache = true;
    spec.size_cache = 8;
    spec.cache_buckets = 8;
    std::unique_ptr<ComplexDatabase> db;
    ASSERT_TRUE(BuildDatabase(spec, &db).ok());
    const Oid t0 = db->units[db->unit_of_parent[0]][0];

    Query up;
    up.kind = Query::Kind::kUpdate;
    up.update_targets = {t0};
    up.new_ret1 = 888101;
    ASSERT_TRUE(mvcc::MvccUpdate(db.get(), up).ok());

    std::unique_ptr<Strategy> cache_strategy;
    ASSERT_TRUE(MakeStrategy(StrategyKind::kDfsCache, db.get(),
                             StrategyOptions{}, &cache_strategy)
                    .ok());
    Query q;
    q.kind = Query::Kind::kRetrieve;
    q.lo_parent = 0;
    q.num_top = 1;
    q.attr_index = 0;
    db->disk->fault_injector()->ArmCrash(point);
    RetrieveResult installing;
    (void)mvcc::SnapshotRetrieve(cache_strategy.get(), db.get(), q,
                                 &installing);
    ASSERT_TRUE(db->disk->fault_injector()->crashed())
        << "the retrieve installed no cache unit";

    RecoveryReport rep;
    ASSERT_TRUE(RecoverDatabase(db.get(), &rep).ok());
    EXPECT_EQ(rep.mvcc_txns_redone, 1u);
    const bool install_durable =
        std::string(point) == "wal.applied.before_sync";
    EXPECT_EQ(rep.wal.txns_redone, install_durable ? 2u : 1u);
    EXPECT_EQ(rep.wal.pages_redone > 0, install_durable);

    std::unique_ptr<Strategy> strategy;
    ASSERT_TRUE(MakeStrategy(StrategyKind::kDfs, db.get(), StrategyOptions{},
                             &strategy)
                    .ok());
    RetrieveResult r;
    ASSERT_TRUE(strategy->ExecuteRetrieve(q, &r).ok());
    bool saw = false;
    for (size_t i = 0; i < r.oids.size(); ++i) {
      if (r.oids[i].Packed() == t0.Packed()) {
        EXPECT_EQ(r.values[i], 888101);
        saw = true;
      }
    }
    EXPECT_TRUE(saw);
  }
}

}  // namespace
}  // namespace objrep
