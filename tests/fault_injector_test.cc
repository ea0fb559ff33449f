// Unit tests for the deterministic fault injector and the WAL's record
// mechanics: seeded rate faults replay identically, crash points poison
// all subsequent I/O until cleared, and the log's commit/durable/applied
// bookkeeping behaves as DESIGN.md §10 specifies, including the split
// between page-transaction records and MVCC records.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "storage/wal.h"

namespace objrep {
namespace {

TEST(FaultInjectorTest, DisabledByDefaultAndFreeOfFaults) {
  FaultInjector fi;
  EXPECT_FALSE(fi.enabled());
  EXPECT_FALSE(fi.crashed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(fi.OnRead(1).ok());
    EXPECT_TRUE(fi.OnWrite().ok());
    EXPECT_TRUE(fi.MaybeCrash("disk.write.torn").ok());
  }
}

TEST(FaultInjectorTest, RateFaultsReplayWithTheSameSeed) {
  auto trace = [](uint64_t seed) {
    FaultInjector fi;
    fi.Configure(seed, 0.3, 0.3);
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) out.push_back(fi.OnRead(1).ok());
    for (int i = 0; i < 200; ++i) out.push_back(fi.OnWrite().ok());
    return out;
  };
  EXPECT_EQ(trace(42), trace(42));
  EXPECT_NE(trace(42), trace(43));

  FaultInjector fi;
  fi.Configure(42, 0.3, 0.3);
  for (int i = 0; i < 200; ++i) (void)fi.OnRead(1);
  EXPECT_GT(fi.injected_read_faults(), 20u);
  EXPECT_LT(fi.injected_read_faults(), 120u);
  EXPECT_FALSE(fi.crashed()) << "rate faults must not crash the volume";
}

TEST(FaultInjectorTest, ArmedCrashFiresOnNthHitAndPoisonsAllIo) {
  FaultInjector fi;
  fi.ArmCrash("wal.commit.begin", /*hit=*/3);
  EXPECT_TRUE(fi.MaybeCrash("wal.commit.begin").ok());
  EXPECT_TRUE(fi.MaybeCrash("wal.apply.page").ok());  // different point
  EXPECT_TRUE(fi.MaybeCrash("wal.commit.begin").ok());
  EXPECT_FALSE(fi.MaybeCrash("wal.commit.begin").ok());
  EXPECT_TRUE(fi.crashed());
  EXPECT_EQ(fi.CrashedAt(), "wal.commit.begin");
  EXPECT_EQ(fi.HitCount("wal.commit.begin"), 3u);
  // Crashed volume: every counted I/O and every crash point now fails.
  EXPECT_FALSE(fi.OnRead(1).ok());
  EXPECT_FALSE(fi.OnWrite().ok());
  EXPECT_FALSE(fi.MaybeCrash("wal.apply.page").ok());

  fi.ClearCrash();
  EXPECT_FALSE(fi.crashed());
  EXPECT_TRUE(fi.OnRead(1).ok());
  EXPECT_TRUE(fi.OnWrite().ok());
}

TEST(FaultInjectorTest, RegistryIsStableAndDuplicateFree) {
  const auto& points = FaultInjector::RegisteredCrashPoints();
  EXPECT_GE(points.size(), 13u);
  std::set<std::string> unique(points.begin(), points.end());
  EXPECT_EQ(unique.size(), points.size());
  EXPECT_EQ(points, FaultInjector::RegisteredCrashPoints());
}

TEST(WalTest, CommitMakesRecordsDurableAndAppliedTruncates) {
  DiskManager disk;
  Wal wal(&disk);
  PageId pid = disk.AllocatePage();
  Page img;
  std::memset(img.data, 0x5a, kPageSize);

  uint64_t txn = wal.Begin();
  wal.AppendPageImage(txn, pid, img);
  EXPECT_EQ(wal.durable_bytes(), 0u) << "records are durable only at commit";
  ASSERT_TRUE(wal.Commit(txn).ok());
  EXPECT_EQ(wal.durable_bytes(), wal.size_bytes());
  EXPECT_EQ(wal.committed_txns(), 1u);

  // Applied + no open transactions: the log is truncatable to empty.
  ASSERT_TRUE(wal.AppendApplied(txn).ok());
  EXPECT_EQ(wal.size_bytes(), 0u);
}

TEST(WalTest, RecoverRedoesCommittedButUnappliedTransaction) {
  DiskManager disk;
  Wal wal(&disk);
  PageId keep = disk.AllocatePage();
  PageId reclaim = disk.AllocatePage();
  Page committed;
  std::memset(committed.data, 0x77, kPageSize);

  uint64_t txn = wal.Begin();
  wal.AppendPageImage(txn, keep, committed);
  wal.AppendFreePage(txn, reclaim);
  ASSERT_TRUE(wal.Commit(txn).ok());
  // Simulated crash before the apply phase: the volume never saw the
  // committed image and the free never happened.
  Page on_disk;
  ASSERT_TRUE(disk.ReadPageRaw(keep, &on_disk).ok());
  EXPECT_NE(on_disk.data[0], committed.data[0]);

  WalRecoveryStats stats;
  ASSERT_TRUE(wal.Recover(&stats).ok());
  EXPECT_EQ(stats.txns_seen, 1u);
  EXPECT_EQ(stats.txns_redone, 1u);
  EXPECT_EQ(stats.pages_redone, 1u);
  EXPECT_EQ(stats.frees_redone, 1u);
  ASSERT_TRUE(disk.ReadPageRaw(keep, &on_disk).ok());
  EXPECT_EQ(0, std::memcmp(on_disk.data, committed.data, kPageSize));
  EXPECT_FALSE(disk.PageIsAllocated(reclaim));

  // Redo is idempotent: a second recovery pass finds the same committed
  // transaction and replays it onto an already-correct volume.
  ASSERT_TRUE(wal.Recover(&stats).ok());
  EXPECT_EQ(stats.txns_redone, 1u);
  ASSERT_TRUE(disk.ReadPageRaw(keep, &on_disk).ok());
  EXPECT_EQ(0, std::memcmp(on_disk.data, committed.data, kPageSize));
}

TEST(WalTest, UncommittedRecordsAreNotRedone) {
  DiskManager disk;
  Wal wal(&disk);
  PageId pid = disk.AllocatePage();
  Page img;
  std::memset(img.data, 0x33, kPageSize);

  uint64_t txn = wal.Begin();
  wal.AppendPageImage(txn, pid, img);
  // No Commit: the appended records never became durable.
  WalRecoveryStats stats;
  ASSERT_TRUE(wal.Recover(&stats).ok());
  EXPECT_EQ(stats.txns_redone, 0u);
  EXPECT_EQ(stats.pages_redone, 0u);
  Page on_disk;
  ASSERT_TRUE(disk.ReadPageRaw(pid, &on_disk).ok());
  EXPECT_NE(on_disk.data[0], img.data[0]);
}

TEST(WalTest, TornSyncCutsTheDurablePrefixMidRecord) {
  DiskManager disk;
  FaultInjector* fi = disk.fault_injector();
  Wal wal(&disk);
  PageId pid = disk.AllocatePage();
  Page img;
  std::memset(img.data, 0x11, kPageSize);

  uint64_t txn = wal.Begin();
  wal.AppendPageImage(txn, pid, img);
  fi->ArmCrash("wal.sync.torn");
  ASSERT_FALSE(wal.Commit(txn).ok());
  EXPECT_TRUE(fi->crashed());
  // Part of the tail became durable, but not the whole commit record.
  EXPECT_GT(wal.durable_bytes(), 0u);
  EXPECT_LT(wal.durable_bytes(), wal.size_bytes());

  fi->ClearCrash();
  WalRecoveryStats stats;
  ASSERT_TRUE(wal.Recover(&stats).ok());
  EXPECT_EQ(stats.txns_redone, 0u) << "a torn commit must not be redone";
  EXPECT_GT(stats.torn_bytes, 0u);
  Page on_disk;
  ASSERT_TRUE(disk.ReadPageRaw(pid, &on_disk).ok());
  EXPECT_NE(on_disk.data[0], img.data[0]);
}

/// Bytes one MVCC commit of `updates` leaves in a log: its kMvccUpdate
/// and kCommit records.
uint64_t MvccCommitBytes(
    const std::vector<std::pair<uint64_t, int32_t>>& updates) {
  DiskManager disk;
  Wal wal(&disk);
  uint64_t txn = wal.Begin();
  EXPECT_TRUE(wal.CommitMvccUpdate(txn, 1, updates).ok());
  return wal.size_bytes();
}

TEST(WalTest, PageRecordsTruncateWhileAnMvccCommitIsOpen) {
  DiskManager disk;
  Wal wal(&disk);
  PageId pid = disk.AllocatePage();
  Page img;
  std::memset(img.data, 0x42, kPageSize);

  // An MVCC commit stays unapplied until a fold, which never runs here.
  const std::vector<std::pair<uint64_t, int32_t>> updates = {{7, 1007},
                                                             {9, 1009}};
  const uint64_t mvcc_txn = wal.Begin();
  ASSERT_TRUE(wal.CommitMvccUpdate(mvcc_txn, 5, updates).ok());
  const uint64_t mvcc_bytes = wal.size_bytes();
  EXPECT_EQ(mvcc_bytes, MvccCommitBytes(updates));

  for (int i = 0; i < 8; ++i) {
    uint64_t txn = wal.Begin();
    wal.AppendPageImage(txn, pid, img);
    ASSERT_TRUE(wal.Commit(txn).ok());
    EXPECT_GT(wal.size_bytes(), mvcc_bytes + kPageSize);
    ASSERT_TRUE(wal.AppendApplied(txn).ok());
    EXPECT_EQ(wal.size_bytes(), mvcc_bytes)
        << "page records outlived their transaction's apply";
  }
  EXPECT_EQ(wal.durable_bytes(), mvcc_bytes);

  // The MVCC commit is still redoable...
  WalRecoveryStats stats;
  std::vector<WalMvccRedo> redo;
  ASSERT_TRUE(wal.Recover(&stats, &redo).ok());
  EXPECT_EQ(stats.txns_seen, 1u);
  EXPECT_EQ(stats.txns_redone, 1u);
  EXPECT_EQ(stats.pages_redone, 0u);
  ASSERT_EQ(redo.size(), 1u);
  EXPECT_EQ(redo[0].txn, mvcc_txn);
  EXPECT_EQ(redo[0].commit_ts, 5u);
  EXPECT_EQ(redo[0].updates, updates);

  // ...until the fold's applied record empties the MVCC log too.
  ASSERT_TRUE(wal.AppendMvccApplied(mvcc_txn).ok());
  EXPECT_EQ(wal.size_bytes(), 0u);
}

TEST(WalTest, TornPageSyncLeavesTheMvccLogWhole) {
  DiskManager disk;
  FaultInjector* fi = disk.fault_injector();
  Wal wal(&disk);
  PageId pid = disk.AllocatePage();
  Page img;
  std::memset(img.data, 0x24, kPageSize);

  const uint64_t mvcc_txn = wal.Begin();
  ASSERT_TRUE(wal.CommitMvccUpdate(mvcc_txn, 3, {{11, 2011}}).ok());
  uint64_t txn = wal.Begin();
  wal.AppendPageImage(txn, pid, img);
  fi->ArmCrash("wal.sync.torn");
  ASSERT_FALSE(wal.Commit(txn).ok());

  fi->ClearCrash();
  WalRecoveryStats stats;
  std::vector<WalMvccRedo> redo;
  ASSERT_TRUE(wal.Recover(&stats, &redo).ok());
  EXPECT_GT(stats.torn_bytes, 0u);
  EXPECT_EQ(stats.txns_redone, 1u) << "only the MVCC commit is redone";
  EXPECT_EQ(stats.pages_redone, 0u);
  ASSERT_EQ(redo.size(), 1u);
  EXPECT_EQ(redo[0].txn, mvcc_txn);
}

// MVCC committers and page transactions share the WAL's mutex and txn ids
// but not a log. With every page transaction applied and no fold, the log
// ends holding exactly the MVCC commits.
TEST(WalTest, ConcurrentMvccAndPageCommitsLeaveOnlyMvccRecords) {
  DiskManager disk;
  Wal wal(&disk);
  constexpr int kPerThread = 200;
  const PageId pids[2] = {disk.AllocatePage(), disk.AllocatePage()};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&wal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t txn = wal.Begin();
        const uint64_t oid = static_cast<uint64_t>(t) << 32 | i;
        EXPECT_TRUE(wal.CommitMvccUpdate(txn, txn, {{oid, i}}).ok());
      }
    });
    threads.emplace_back([&wal, pid = pids[t]] {
      Page img;
      std::memset(img.data, static_cast<int>(pid), kPageSize);
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t txn = wal.Begin();
        wal.AppendPageImage(txn, pid, img);
        EXPECT_TRUE(wal.Commit(txn).ok());
        EXPECT_TRUE(wal.AppendApplied(txn).ok());
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(wal.committed_txns(), 4u * kPerThread);
  EXPECT_EQ(wal.size_bytes(), 2u * kPerThread * MvccCommitBytes({{1, 1}}));
  EXPECT_EQ(wal.durable_bytes(), wal.size_bytes());
  WalRecoveryStats stats;
  std::vector<WalMvccRedo> redo;
  ASSERT_TRUE(wal.Recover(&stats, &redo).ok());
  EXPECT_EQ(stats.txns_redone, 2u * kPerThread);
  EXPECT_EQ(stats.pages_redone, 0u);
  EXPECT_EQ(redo.size(), 2u * kPerThread);
}

}  // namespace
}  // namespace objrep
