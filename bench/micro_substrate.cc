// Micro-benchmarks of the storage substrate (google-benchmark): B-tree
// probes and scans, hash-file probes, external sort, buffer-pool hit and
// miss paths, the simulated device's seek sleep, a WAL page-image commit,
// and whole database builds (generation plus volume loads).
// These are engineering benchmarks (M1 in DESIGN.md), not paper figures.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>

#include "access/btree.h"
#include "access/hash_file.h"
#include "objstore/database.h"
#include "relational/external_sort.h"
#include "relational/temp_file.h"
#include "shard/sharded_db.h"
#include "storage/wal.h"
#include "util/random.h"

namespace objrep {
namespace {

struct TreeFixture {
  TreeFixture(uint32_t n, uint32_t buffer_pages)
      : pool(&disk, buffer_pages) {
    std::vector<BPlusTree::Entry> entries;
    entries.reserve(n);
    for (uint32_t k = 0; k < n; ++k) {
      entries.push_back({k, std::string(100, 'v')});
    }
    OBJREP_CHECK(BPlusTree::BulkLoad(&pool, entries, &tree).ok());
  }
  DiskManager disk;
  BufferPool pool;
  BPlusTree tree;
};

void BM_BTreeProbeCold(benchmark::State& state) {
  TreeFixture f(50000, 100);  // tree far larger than the buffer
  Rng rng(1);
  std::string v;
  for (auto _ : state) {
    uint64_t k = rng.Uniform(50000);
    benchmark::DoNotOptimize(f.tree.Get(k, &v));
  }
  state.counters["io_per_op"] = benchmark::Counter(
      static_cast<double>(f.disk.counters().total()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BTreeProbeCold);

void BM_BTreeProbeHot(benchmark::State& state) {
  TreeFixture f(5000, 1000);  // tree fits in the buffer
  Rng rng(2);
  std::string v;
  for (auto _ : state) {
    uint64_t k = rng.Uniform(5000);
    benchmark::DoNotOptimize(f.tree.Get(k, &v));
  }
}
BENCHMARK(BM_BTreeProbeHot);

void BM_BTreeScan(benchmark::State& state) {
  TreeFixture f(20000, 100);
  for (auto _ : state) {
    auto it = f.tree.NewIterator();
    OBJREP_CHECK(it.SeekToFirst().ok());
    uint64_t count = 0;
    while (it.valid()) {
      ++count;
      OBJREP_CHECK(it.Next().ok());
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_BTreeScan);

void BM_BTreeInsertRandom(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 200);
  BPlusTree tree;
  OBJREP_CHECK(BPlusTree::Create(&pool, &tree).ok());
  Rng rng(3);
  uint64_t next = 0;
  for (auto _ : state) {
    // Mixed-density keys, unique by construction.
    uint64_t k = (next++ << 16) | rng.Uniform(65536);
    OBJREP_CHECK(tree.Insert(k, std::string(60, 'i')).ok());
  }
}
BENCHMARK(BM_BTreeInsertRandom);

void BM_HashProbe(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 100);
  HashFile hash;
  OBJREP_CHECK(HashFile::Create(&pool, 512, &hash).ok());
  for (uint64_t k = 0; k < 1000; ++k) {
    OBJREP_CHECK(hash.Insert(k, std::string(500, 'c')).ok());
  }
  Rng rng(4);
  std::string v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash.Lookup(rng.Uniform(1000), &v));
  }
  state.counters["io_per_op"] = benchmark::Counter(
      static_cast<double>(disk.counters().total()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_HashProbe);

void BM_ExternalSort(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  DiskManager disk;
  BufferPool pool(&disk, 100);
  Rng rng(5);
  for (auto _ : state) {
    TempFile input;
    OBJREP_CHECK(TempFile::Create(&pool, &input).ok());
    for (uint32_t i = 0; i < n; ++i) {
      OBJREP_CHECK(input.Append(rng.Next()).ok());
    }
    input.Seal();
    TempFile sorted;
    SortOptions opts;
    opts.work_mem_pages = 16;
    OBJREP_CHECK(ExternalSort(&pool, input, opts, &sorted).ok());
    benchmark::DoNotOptimize(sorted.num_entries());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExternalSort)->Arg(10000)->Arg(100000);

void BM_BufferPoolHit(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 16);
  PageGuard g;
  OBJREP_CHECK(pool.NewPage(&g).ok());
  PageId pid = g.page_id();
  g.Release();
  for (auto _ : state) {
    PageGuard h;
    OBJREP_CHECK(pool.FetchPage(pid, &h).ok());
    benchmark::DoNotOptimize(h.page());
  }
}
BENCHMARK(BM_BufferPoolHit);

// Miss path with an eviction on every fetch: cycles over 10x capacity
// pages, so each FetchPage misses and evicts the LRU victim (after the
// first `capacity` fetches fill the free frames). Time per iteration is
// ns per miss: victim selection under evict_mu_, page-table churn and the
// in-memory device read. Not gated; Arg is the pool size in frames. The
// ->Threads(4) variant shares one pool: thread t walks the pages t, t+4,
// t+8, ... of the cycle, so the threads never share a page (every fetch
// still misses) yet contend on the pool's latches, page table and volume —
// the cost a single thread never sees.
struct MissFixture {
  explicit MissFixture(uint32_t frames) {
    BufferPool loader(&disk, 16);
    for (uint32_t i = 0; i < frames * 10; ++i) {
      PageGuard g;
      OBJREP_CHECK(loader.NewPage(&g).ok());
      pids.push_back(g.page_id());
    }
    OBJREP_CHECK(loader.FlushAll().ok());
    pool = std::make_unique<BufferPool>(&disk, frames);
  }
  DiskManager disk;
  std::vector<PageId> pids;
  std::unique_ptr<BufferPool> pool;
};

void BM_BufferPoolMiss(benchmark::State& state) {
  static std::unique_ptr<MissFixture> fixture;
  if (state.thread_index() == 0) {
    fixture = std::make_unique<MissFixture>(
        static_cast<uint32_t>(state.range(0)));
  }
  // The first loop iteration is a barrier across the benchmark's threads,
  // so every thread sees the fixture thread 0 built.
  const size_t stride = static_cast<size_t>(state.threads());
  size_t next = static_cast<size_t>(state.thread_index());
  for (auto _ : state) {
    const std::vector<PageId>& pids = fixture->pids;
    PageGuard g;
    OBJREP_CHECK(fixture->pool->FetchPage(pids[next], &g).ok());
    benchmark::DoNotOptimize(g.page());
    next += stride;
    if (next >= pids.size()) next -= pids.size();
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    OBJREP_CHECK(fixture->pool->hits() == 0);
    fixture.reset();
  }
}
BENCHMARK(BM_BufferPoolMiss)->Arg(100)->Arg(4000);
BENCHMARK(BM_BufferPoolMiss)->Arg(100)->Threads(4)->UseRealTime();

// The simulated device's sleep (DESIGN.md §9): one seek-charged ReadPage
// at io_latency_us = 50. The time reported is wall µs per read; the device
// charges disk.device_us 50 µs for each, so the difference is the host's
// sleep overshoot (timer slack plus wake-up latency).
void BM_SimulatedSeek(benchmark::State& state) {
  constexpr uint32_t kSeekUs = 50;
  DiskManager disk;
  const PageId pid = disk.AllocatePage();
  disk.set_io_latency_us(kSeekUs);
  Page page;
  for (auto _ : state) {
    // Re-reading one page is never sequential, so every read seeks.
    benchmark::DoNotOptimize(disk.ReadPage(pid, &page));
  }
  state.counters["device_us_per_read"] = kSeekUs;
}
BENCHMARK(BM_SimulatedSeek)->UseRealTime()->Unit(benchmark::kMicrosecond);

// One WAL transaction as a served update commits it: begin, dirty two
// resident pages, commit — two page-image records (checksummed, appended
// to the log), the commit record and sync, two write-through page writes,
// and the applied record that truncates the log.
void BM_WalCommitPageImage(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 16);
  Wal wal(&disk);
  pool.AttachWal(&wal);
  PageId pids[2];
  for (PageId& pid : pids) {
    PageGuard g;
    OBJREP_CHECK(pool.NewPage(&g).ok());
    pid = g.page_id();
  }
  OBJREP_CHECK(pool.FlushAll().ok());
  uint32_t stamp = 0;
  for (auto _ : state) {
    OBJREP_CHECK(pool.BeginTxn().ok());
    for (PageId pid : pids) {
      PageGuard g;
      OBJREP_CHECK(pool.FetchPage(pid, &g).ok());
      std::memcpy(g.page()->data, &stamp, sizeof(stamp));
      g.MarkDirty();
    }
    OBJREP_CHECK(pool.CommitTxn().ok());
    ++stamp;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalCommitPageImage);

// Database builds, the set-up every experiment point and every served
// deployment pays: GenerateDatabase plus the bulk loads of each volume,
// ending flushed. Not gated. BM_BuildDatabase uses objbench update's spec
// (10,000 parents, cache and WAL on); BM_BuildShardedDatabase uses
// cold_scan's (20,000 parents on 2 shards).
void BM_BuildDatabase(benchmark::State& state) {
  DatabaseSpec spec;
  spec.num_parents = 10000;
  spec.use_factor = 5;
  spec.buffer_pages = 100;
  spec.build_cache = true;
  spec.size_cache = 1000;
  spec.enable_wal = true;
  for (auto _ : state) {
    std::unique_ptr<ComplexDatabase> db;
    OBJREP_CHECK(BuildDatabase(spec, &db).ok());
    benchmark::DoNotOptimize(db->TotalPages());
  }
}
BENCHMARK(BM_BuildDatabase)->Unit(benchmark::kMillisecond);

void BM_BuildShardedDatabase(benchmark::State& state) {
  DatabaseSpec spec;
  spec.num_parents = 20000;
  spec.use_factor = 5;
  spec.buffer_pages = 100;
  spec.io_latency_us = 50;
  spec.reclaim_temp_pages = true;
  for (auto _ : state) {
    std::unique_ptr<shard::ShardedDatabase> sdb;
    OBJREP_CHECK(shard::BuildShardedDatabase(spec, 2, &sdb).ok());
    benchmark::DoNotOptimize(sdb->shards[0]->TotalPages());
  }
}
BENCHMARK(BM_BuildShardedDatabase)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace objrep

BENCHMARK_MAIN();
