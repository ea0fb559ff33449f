#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace objbench {

using objrep::StrategyKind;

namespace {

/// DFS, read-only, uniform, the whole database resident in a large pool
/// and no device latency: serving-path CPU dominates. One CPU at a time:
/// spread over several, each request's four thread handoffs were cross-CPU
/// wake-ups, which took more than half the latency and moved it by up to a
/// third between runs on a shared host.
WorkloadDef HotPoint(bool small) {
  WorkloadDef w;
  w.name = "hot_point";
  w.db.num_parents = small ? 200 : 2000;
  w.db.use_factor = 1;
  w.db.buffer_pages = 4000;
  w.strategy = StrategyKind::kDfs;
  w.traffic.num_top = 5;
  w.connections = 1;
  w.workers = 1;
  w.cpus = 1;
  w.requests_per_s = 5000;
  w.setup_repeats = small ? 1 : 15;
  w.check_every = 64;
  w.max_checks = 4000;
  w.replay_retrieves = small ? 50 : 2000;
  return w;
}

/// BFS fan-out over two shards whose data is far larger than their
/// 100-page pools, on a seeking device: storage and relational dominate.
WorkloadDef ColdScan(bool small) {
  WorkloadDef w;
  w.name = "cold_scan";
  w.db.num_parents = small ? 2000 : 20000;
  w.db.use_factor = 5;
  w.db.buffer_pages = 100;
  w.db.io_latency_us = 50;
  w.db.reclaim_temp_pages = true;
  w.shards = 2;
  w.strategy = StrategyKind::kBfs;
  w.traffic.num_top = small ? 50 : 40;
  w.connections = 4;
  w.workers = 4;
  w.warmup_s = 1.0;
  w.requests_per_s = 2000;
  w.setup_repeats = small ? 1 : 5;
  w.check_every = 8;
  w.max_checks = small ? 8 : 200;
  w.replay_retrieves = small ? 4 : 12;
  return w;
}

/// DFSCACHE with a skewed read set beside 20% updates, WAL on; `mvcc`
/// picks snapshot isolation instead of table-level 2PL.
WorkloadDef Update(bool mvcc, bool small) {
  WorkloadDef w;
  w.name = mvcc ? "update_mvcc" : "update_2pl";
  w.db.num_parents = small ? 1000 : 10000;
  w.db.use_factor = 5;
  w.db.buffer_pages = 100;
  w.db.build_cache = true;
  w.db.size_cache = 1000;
  w.db.enable_wal = true;
  w.db.enable_mvcc = mvcc;
  w.strategy = StrategyKind::kDfsCache;
  w.traffic.num_top = 10;
  w.traffic.pr_update = 0.1;
  w.traffic.update_batch = 5;
  w.traffic.hot_access_prob = 0.8;
  w.traffic.hot_region_fraction = 0.05;
  w.connections = 2;
  w.workers = 2;
  w.warmup_s = 1.0;
  w.requests_per_s = 20000;
  w.setup_repeats = small ? 1 : 7;
  w.replay_retrieves = small ? 50 : 500;
  return w;
}

}  // namespace

bool WorkloadDef::ordered_results() const {
  switch (strategy) {
    case StrategyKind::kDfs:
    case StrategyKind::kDfsCache:
    case StrategyKind::kDfsClust:
    case StrategyKind::kDfsClustCache:
      return true;
    default:
      return false;
  }
}

uint32_t WorkloadDef::RequestsFor(double seconds) const {
  double n = std::ceil((seconds + warmup_s) * requests_per_s);
  return static_cast<uint32_t>(std::clamp(n, 1000.0, 4.0e6));
}

std::string WorkloadDef::Describe() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "data: %s |ParentRel|=%u UseFactor=%u SizeUnit=%u shards=%u pool=%u "
      "pages/volume%s\n"
      "traffic: NumTop=%u Pr(UPDATE)=%.2f batch=%u hot=%.2f over %.0f%% of "
      "ParentRel\n"
      "load: closed loop, %u connections, %u server workers, %s, %.1f s "
      "warm-up\n"
      "device: %s\n"
      "durability: %s",
      objrep::StrategyKindName(strategy), db.num_parents, db.use_factor,
      db.size_unit, shards, db.buffer_pages,
      db.build_cache ? (" cache=" + std::to_string(db.size_cache) + " units")
                           .c_str()
                     : "",
      traffic.num_top, traffic.pr_update, traffic.update_batch,
      traffic.hot_access_prob, traffic.hot_region_fraction * 100, connections,
      workers,
      cpus > 0 ? ("on " + std::to_string(cpus) + " CPU").c_str() : "all CPUs",
      warmup_s,
      db.io_latency_us > 0
          ? ("sleeping simulator, " + std::to_string(db.io_latency_us) +
             " us per seek, 0 transfer")
                .c_str()
          : "zero latency (pure counter)",
      !db.enable_wal ? "no WAL"
      : db.enable_mvcc
          ? "MVCC + WAL; in-memory WAL sync, versions never folded while serving"
          : "2PL + WAL; in-memory WAL sync, write-through on commit");
  return buf;
}

std::vector<std::string> WorkloadNames() {
  return {"hot_point", "cold_scan", "update_2pl", "update_mvcc"};
}

bool FindWorkload(const std::string& name, bool small, WorkloadDef* out) {
  if (name == "hot_point") {
    *out = HotPoint(small);
  } else if (name == "cold_scan") {
    *out = ColdScan(small);
  } else if (name == "update_2pl") {
    *out = Update(/*mvcc=*/false, small);
  } else if (name == "update_mvcc") {
    *out = Update(/*mvcc=*/true, small);
  } else {
    return false;
  }
  return true;
}

}  // namespace objbench
