// Per-component I/O attribution (DESIGN.md §11).
//
// The load-bearing invariant: DiskManager bumps the thread's tag slot at
// the same site, by the same amount, as the flat counters — so the per-tag
// breakdown sums to IoCounters *exactly*, for every strategy, workload,
// and configuration. The paper-shape assertions then pin each strategy's
// dominant tags to its cost story: DFS pays random child-index probes,
// BFS pays temp/sort traffic, DFSCACHE pays cache maintenance.
//
// Also here: the seq/rand classification fix (per-thread device arm) and
// the ResetStats / ResetCounters audit.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "core/strategy.h"
#include "exec/concurrent_runner.h"
#include "mvcc/version_store.h"
#include "objstore/database.h"
#include "objstore/workload.h"
#include "storage/disk_manager.h"

namespace objrep {
namespace {

constexpr StrategyKind kAllStrategies[] = {
    StrategyKind::kDfs,          StrategyKind::kBfs,
    StrategyKind::kBfsNoDup,     StrategyKind::kDfsCache,
    StrategyKind::kDfsClust,     StrategyKind::kSmart,
    StrategyKind::kDfsClustCache, StrategyKind::kBfsJoinIndex,
    StrategyKind::kBfsHash,
};

/// Small everything-enabled database: every strategy runnable, WAL on so
/// the kWal tag is exercised, buffer small enough to force real I/O.
DatabaseSpec FullSpec() {
  DatabaseSpec spec;
  spec.num_parents = 40;  // use * overlap * child_rels * 10
  spec.size_unit = 4;
  spec.use_factor = 2;
  spec.overlap_factor = 1;
  spec.num_child_rels = 2;
  // Much smaller than the database: retrieval must do physical reads
  // (a pool that holds the whole database attributes nothing).
  spec.buffer_pages = 16;
  spec.build_cache = true;
  spec.size_cache = 16;
  spec.cache_buckets = 16;
  spec.build_cluster = true;
  spec.build_join_index = true;
  spec.enable_wal = true;
  spec.seed = 97;
  return spec;
}

WorkloadSpec MixedWorkload() {
  WorkloadSpec wl;
  wl.num_queries = 12;
  wl.num_top = 8;
  wl.pr_update = 0.3;
  wl.update_batch = 2;
  wl.seed = 7;
  return wl;
}

TEST(IoAttributionTest, BreakdownSumsExactlyToCountersForAllStrategies) {
  for (StrategyKind kind : kAllStrategies) {
    SCOPED_TRACE(StrategyKindName(kind));
    std::unique_ptr<ComplexDatabase> db;
    ASSERT_TRUE(BuildDatabase(FullSpec(), &db).ok());
    std::vector<Query> queries;
    ASSERT_TRUE(GenerateWorkload(MixedWorkload(), *db, &queries).ok());
    std::unique_ptr<Strategy> strategy;
    ASSERT_TRUE(MakeStrategy(kind, db.get(), {}, &strategy).ok());
    RunResult r;
    ASSERT_TRUE(RunWorkload(strategy.get(), db.get(), queries, &r).ok());

    // The run delta must account for every counted page, reads and writes
    // separately — attribution never loses or invents traffic.
    EXPECT_EQ(r.io_by_tag.total_reads(), r.io.reads);
    EXPECT_EQ(r.io_by_tag.total_writes(), r.io.writes);
    EXPECT_EQ(r.io_by_tag.total(), r.total_io);

    // Cumulatively too (includes the untagged build phase, billed kNone).
    IoTagBreakdown all = db->disk->breakdown();
    IoCounters counters = db->disk->counters();
    EXPECT_EQ(all.total_reads(), counters.reads);
    EXPECT_EQ(all.total_writes(), counters.writes);

    // Inside the measured window every page is attributed to a real
    // component: the runner starts after the (kNone-tagged) build.
    EXPECT_EQ(r.io_by_tag.total_for(IoTag::kNone), 0u);
  }
}

TEST(IoAttributionTest, DfsIsProbeDominated) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(FullSpec(), &db).ok());
  std::vector<Query> queries;
  ASSERT_TRUE(GenerateWorkload(MixedWorkload(), *db, &queries).ok());
  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(MakeStrategy(StrategyKind::kDfs, db.get(), {}, &strategy).ok());
  RunResult r;
  ASSERT_TRUE(RunWorkload(strategy.get(), db.get(), queries, &r).ok());

  // DFS = parent scan + random child-index probes; it never touches
  // temps, the cache, or ClusterRel.
  EXPECT_GT(r.io_by_tag.total_for(IoTag::kParentScan), 0u);
  EXPECT_GT(r.io_by_tag.total_for(IoTag::kIndexProbe), 0u);
  EXPECT_EQ(r.io_by_tag.total_for(IoTag::kTempSort), 0u);
  EXPECT_EQ(r.io_by_tag.total_for(IoTag::kCacheFetch), 0u);
  EXPECT_EQ(r.io_by_tag.total_for(IoTag::kCacheMaint), 0u);
  EXPECT_EQ(r.io_by_tag.total_for(IoTag::kClusterScan), 0u);
  // Probes dominate the read bill (paper §4: DFS loses on random access).
  EXPECT_GT(r.io_by_tag.reads_for(IoTag::kIndexProbe),
            r.io_by_tag.reads_for(IoTag::kParentScan));
}

TEST(IoAttributionTest, BfsIsTempAndSortDominated) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(FullSpec(), &db).ok());
  // Retrieve-heavy stream with a wide window: real temp traffic.
  WorkloadSpec wl = MixedWorkload();
  wl.pr_update = 0.0;
  wl.num_top = 20;
  std::vector<Query> queries;
  ASSERT_TRUE(GenerateWorkload(wl, *db, &queries).ok());
  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(MakeStrategy(StrategyKind::kBfs, db.get(), {}, &strategy).ok());
  RunResult r;
  ASSERT_TRUE(RunWorkload(strategy.get(), db.get(), queries, &r).ok());

  // BFS = parent scan + temp spill/sort + merge-join heap fetches; it
  // never probes the child index and never touches the cache.
  EXPECT_GT(r.io_by_tag.total_for(IoTag::kTempSort), 0u);
  EXPECT_GT(r.io_by_tag.total_for(IoTag::kHeapFetch), 0u);
  EXPECT_GT(r.io_by_tag.total_for(IoTag::kParentScan), 0u);
  EXPECT_EQ(r.io_by_tag.total_for(IoTag::kIndexProbe), 0u);
  EXPECT_EQ(r.io_by_tag.total_for(IoTag::kCacheMaint), 0u);
}

TEST(IoAttributionTest, DfsCacheBillsMaintenanceAndHits) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(FullSpec(), &db).ok());
  // The same retrieve repeated: the first execution installs units
  // (maintenance), the rest are served from the Cache relation (fetch).
  Query q;
  q.kind = Query::Kind::kRetrieve;
  q.lo_parent = 0;
  q.num_top = 10;
  q.attr_index = 0;
  std::vector<Query> queries(5, q);
  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(
      MakeStrategy(StrategyKind::kDfsCache, db.get(), {}, &strategy).ok());
  RunResult r;
  ASSERT_TRUE(RunWorkload(strategy.get(), db.get(), queries, &r).ok());

  EXPECT_GT(r.io_by_tag.total_for(IoTag::kCacheMaint), 0u);
  EXPECT_GT(r.io_by_tag.total_for(IoTag::kCacheFetch), 0u);
  EXPECT_GT(r.cache_stats.hits, 0u);
  EXPECT_EQ(r.io_by_tag.total_reads(), r.io.reads);
  EXPECT_EQ(r.io_by_tag.total_writes(), r.io.writes);
}

TEST(IoAttributionTest, UpdatesBillUpdateAndWalTags) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(FullSpec(), &db).ok());
  WorkloadSpec wl = MixedWorkload();
  wl.pr_update = 1.0;
  std::vector<Query> queries;
  ASSERT_TRUE(GenerateWorkload(wl, *db, &queries).ok());
  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(MakeStrategy(StrategyKind::kDfs, db.get(), {}, &strategy).ok());
  RunResult r;
  ASSERT_TRUE(RunWorkload(strategy.get(), db.get(), queries, &r).ok());

  EXPECT_GT(r.io_by_tag.total_for(IoTag::kUpdate), 0u);
  // WAL write-through: commit-time page writes carry the kWal tag.
  EXPECT_GT(r.io_by_tag.writes_for(IoTag::kWal), 0u);
}

TEST(IoAttributionTest, MvccRunSumsExactlyAndBillsCommitAndFoldTags) {
  // Same invariant on the MVCC path: snapshot retrieves, version-store
  // commits (kMvccCommit), and the quiescent-point fold (kMvccFold) all
  // bump the same thread-local tag slots as the flat counters, so the
  // per-tag breakdown stays an exact partition even when updates commit
  // through versions instead of write-through pages.
  DatabaseSpec spec = FullSpec();
  spec.enable_mvcc = true;
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  WorkloadSpec wl = MixedWorkload();
  wl.pr_update = 0.5;
  wl.num_queries = 24;
  std::vector<Query> queries;
  ASSERT_TRUE(GenerateWorkload(wl, *db, &queries).ok());

  ConcurrentRunOptions opts;
  opts.num_threads = 4;
  ConcurrentRunResult cr;
  ASSERT_TRUE(RunConcurrentWorkload(StrategyKind::kDfs, {}, db.get(),
                                    queries, opts, &cr)
                  .ok());
  const RunResult& r = cr.combined;

  // Exact partition, reads and writes separately — including the fold,
  // which runs inside the measured window.
  EXPECT_EQ(r.io_by_tag.total_reads(), r.io.reads);
  EXPECT_EQ(r.io_by_tag.total_writes(), r.io.writes);
  EXPECT_EQ(r.io_by_tag.total_for(IoTag::kNone), 0u);

  // The fold reads base pages back in (the run evicted them from the
  // 16-page pool) and its traffic is billed to kMvccFold, not smeared
  // into kUpdate.
  EXPECT_GT(r.io_by_tag.total_for(IoTag::kMvccFold), 0u);
  // Durability still bills the WAL tag: the fold's transaction commits
  // its page writes through the log.
  EXPECT_GT(r.io_by_tag.writes_for(IoTag::kWal), 0u);
}

TEST(IoAttributionTest, SequentialMvccRunCommitsThroughVersionsAndFolds) {
  // The sequential runner takes the same MVCC path as the concurrent one:
  // every update commits through the version store, base pages stay
  // frozen until the quiescent-point fold at the end of the run
  // (kMvccFold), and the breakdown stays an exact partition. The commit
  // itself is in memory, so kMvccCommit bills nothing here; what shows
  // that no update wrote base pages in place is an empty kUpdate.
  DatabaseSpec spec = FullSpec();
  spec.enable_mvcc = true;
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  WorkloadSpec wl = MixedWorkload();
  wl.pr_update = 0.5;
  wl.num_queries = 24;
  std::vector<Query> queries;
  ASSERT_TRUE(GenerateWorkload(wl, *db, &queries).ok());
  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(MakeStrategy(StrategyKind::kDfs, db.get(), {}, &strategy).ok());
  RunResult r;
  ASSERT_TRUE(RunWorkload(strategy.get(), db.get(), queries, &r).ok());
  ASSERT_GT(r.num_updates, 0u);

  EXPECT_EQ(db->mvcc->stats().commits, r.num_updates);
  EXPECT_EQ(r.io_by_tag.total_for(IoTag::kUpdate), 0u);
  EXPECT_GT(r.io_by_tag.total_for(IoTag::kMvccFold), 0u);
  EXPECT_EQ(r.io_by_tag.total_reads(), r.io.reads);
  EXPECT_EQ(r.io_by_tag.total_writes(), r.io.writes);
  EXPECT_EQ(r.io.total(), r.total_io);
  EXPECT_EQ(db->mvcc->live_versions(), 0u);

  // After the fold, a plain (non-snapshot) scan of the base pages shows
  // the last value written to every updated subobject it reaches.
  std::map<uint64_t, int32_t> last_write;
  for (const Query& q : queries) {
    if (q.kind != Query::Kind::kUpdate) continue;
    for (const Oid& oid : q.update_targets) {
      last_write[oid.Packed()] = q.new_ret1;
    }
  }
  Query scan;
  scan.kind = Query::Kind::kRetrieve;
  scan.lo_parent = 0;
  scan.num_top = spec.num_parents;
  scan.attr_index = 0;
  RetrieveResult base;
  ASSERT_TRUE(strategy->ExecuteRetrieve(scan, &base).ok());
  size_t checked = 0;
  for (size_t i = 0; i < base.oids.size(); ++i) {
    auto it = last_write.find(base.oids[i].Packed());
    if (it == last_write.end()) continue;
    EXPECT_EQ(base.values[i], it->second);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(SeqReadClassificationTest, InterleavedSequentialScannersStaySequential) {
  // Two threads each scan their own contiguous page range, forced to
  // alternate read-for-read. With the per-thread device arm each scanner
  // sees its own run: 99 sequential reads apiece. (The old global
  // last-read atomic classified nearly every one of these as random.)
  DiskManager disk;
  constexpr uint64_t kPerThread = 100;
  std::vector<PageId> ids;
  Page p{};
  for (uint64_t i = 0; i < 2 * kPerThread; ++i) {
    PageId id = disk.AllocatePage();
    ids.push_back(id);
    ASSERT_TRUE(disk.WritePage(id, p).ok());
  }
  disk.ResetCounters();

  std::atomic<int> turn{0};
  auto scan = [&](int me, size_t base) {
    Page page;
    for (uint64_t i = 0; i < kPerThread; ++i) {
      while (turn.load(std::memory_order_acquire) != me) {
        std::this_thread::yield();
      }
      ASSERT_TRUE(disk.ReadPage(ids[base + i], &page).ok());
      turn.store(1 - me, std::memory_order_release);
    }
  };
  std::thread a(scan, 0, 0);
  std::thread b(scan, 1, kPerThread);
  a.join();
  b.join();

  IoCounters io = disk.counters();
  EXPECT_EQ(io.reads, 2 * kPerThread);
  // First read per thread seeks (fresh thread, arm unknown); the rest of
  // each scan is sequential despite perfect interleaving.
  EXPECT_EQ(io.seq_reads, 2 * (kPerThread - 1));
  EXPECT_EQ(io.rand_reads, 2u);
}

TEST(SeqReadClassificationTest, WriteResetsTheThreadArm) {
  DiskManager disk;
  Page p{};
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(disk.AllocatePage());
  for (PageId id : ids) ASSERT_TRUE(disk.WritePage(id, p).ok());
  disk.ResetCounters();

  Page page;
  ASSERT_TRUE(disk.ReadPage(ids[0], &page).ok());  // rand (arm unknown)
  ASSERT_TRUE(disk.ReadPage(ids[1], &page).ok());  // seq
  ASSERT_TRUE(disk.WritePage(ids[1], page).ok());  // moves the arm away
  ASSERT_TRUE(disk.ReadPage(ids[2], &page).ok());  // rand again
  ASSERT_TRUE(disk.ReadPage(ids[3], &page).ok());  // seq
  IoCounters io = disk.counters();
  EXPECT_EQ(io.seq_reads, 2u);
  EXPECT_EQ(io.rand_reads, 2u);
}

TEST(ResetStatsTest, ResetCountersClearsBreakdown) {
  DiskManager disk;
  Page p{};
  PageId id = disk.AllocatePage();
  ASSERT_TRUE(disk.WritePage(id, p).ok());
  {
    ScopedIoTag tag(IoTag::kTempSort);
    ASSERT_TRUE(disk.ReadPage(id, &p).ok());
  }
  ASSERT_GT(disk.breakdown().total(), 0u);
  disk.ResetCounters();
  EXPECT_EQ(disk.breakdown().total(), 0u);
  EXPECT_EQ(disk.counters().total(), 0u);
}

TEST(ResetStatsTest, PoolResetClearsEverythingAndDeltasStayNonNegative) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(FullSpec(), &db).ok());
  std::vector<Query> queries;
  ASSERT_TRUE(GenerateWorkload(MixedWorkload(), *db, &queries).ok());
  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(MakeStrategy(StrategyKind::kBfs, db.get(), {}, &strategy).ok());

  // Two back-to-back runs: RunWorkload resets pool stats at entry, so the
  // second run's numbers must describe the second sequence only — every
  // accessor starts from zero, no counter underflows into a huge value.
  RunResult r1, r2;
  ASSERT_TRUE(RunWorkload(strategy.get(), db.get(), queries, &r1).ok());
  ASSERT_TRUE(RunWorkload(strategy.get(), db.get(), queries, &r2).ok());
  // A warm second run can only do less or equal physical I/O.
  EXPECT_LE(r2.total_io, r1.total_io);

  db->pool->ResetStats();
  EXPECT_EQ(db->pool->hits(), 0u);
  EXPECT_EQ(db->pool->misses(), 0u);
  EXPECT_EQ(db->pool->evictions(), 0u);
  EXPECT_EQ(db->pool->eviction_writes(), 0u);
  EXPECT_EQ(db->pool->prefetched_pages(), 0u);
  EXPECT_EQ(db->pool->prefetch_promoted(), 0u);
  EXPECT_EQ(db->pool->prefetch_wasted(), 0u);
}

}  // namespace
}  // namespace objrep
