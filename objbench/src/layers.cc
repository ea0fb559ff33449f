#include "layers.h"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>

#include "deployment.h"
#include "obs/metrics.h"

namespace objbench {

namespace {

const char* const kCounters[] = {
    "net.requests",      "net.bytes_in",     "net.bytes_out",
    "lock.waits",        "sort.runs_formed", "sort.merge_passes",
    "sort.spill_pages",  "pool.hits",        "pool.misses",
    "pool.evictions",    "pool.miss.coalesced", "disk.device_us",
    "wal.syncs",         "wal.bytes",
};

const char* const kHistograms[] = {
    "threadpool.queue_wait_us", "threadpool.task_run_us",
    "net.request_us.RETRIEVE",  "net.request_us.UPDATE",
    "lock.wait_us",
};

std::string SubqueryCounter(size_t shard) {
  return "shard." + std::to_string(shard) + ".retrieve_subqueries";
}

}  // namespace

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double ProcStatusMiB(const std::string& field) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = field + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

LayerSnapshot LayerSnapshot::Take(const Deployment& d) {
  LayerSnapshot s;
  for (const objrep::ComplexDatabase* v : d.volumes()) {
    s.io += v->disk->counters();
    s.tags += v->disk->breakdown();
    s.pages_in_use += v->TotalPages();
    if (v->cache != nullptr) {
      objrep::CacheManager::CacheStats c = v->cache->stats();
      s.cache.hits += c.hits;
      s.cache.misses += c.misses;
      s.cache.inserts += c.inserts;
      s.cache.invalidated_units += c.invalidated_units;
    }
    if (v->mvcc != nullptr) {
      objrep::MvccStats m = v->mvcc->stats();
      s.mvcc.conflicts += m.conflicts;
      s.mvcc.versions_live += m.versions_live;
      s.mvcc.gc_runs += m.gc_runs;
    }
  }
  objrep::MetricsRegistry& reg = objrep::MetricsRegistry::Global();
  for (const char* name : kCounters) {
    s.counters[name] = reg.GetCounter(name)->value();
  }
  uint64_t subqueries = 0;
  for (size_t k = 0; k < d.volumes().size(); ++k) {
    subqueries += reg.GetCounter(SubqueryCounter(k))->value();
  }
  s.counters["shard.retrieve_subqueries"] = subqueries;
  for (const char* name : kHistograms) {
    objrep::Histogram::Snapshot h = reg.GetHistogram(name)->TakeSnapshot();
    s.histograms[name] = HistogramTotals{h.count, h.sum, h.p99};
  }
  return s;
}

uint64_t LayerSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

const HistogramTotals& LayerSnapshot::histogram(const std::string& name) const {
  static const HistogramTotals kEmpty;
  auto it = histograms.find(name);
  return it == histograms.end() ? kEmpty : it->second;
}

LayerSnapshot Delta(const LayerSnapshot& after, const LayerSnapshot& before) {
  LayerSnapshot d = after;
  d.io = after.io - before.io;
  d.tags = after.tags - before.tags;
  d.cache.hits -= before.cache.hits;
  d.cache.misses -= before.cache.misses;
  d.cache.inserts -= before.cache.inserts;
  d.cache.invalidated_units -= before.cache.invalidated_units;
  d.mvcc.conflicts -= before.mvcc.conflicts;
  d.mvcc.gc_runs -= before.mvcc.gc_runs;
  for (auto& [name, v] : d.counters) v -= before.counter(name);
  for (auto& [name, h] : d.histograms) {
    const HistogramTotals& b = before.histogram(name);
    h.count -= b.count;
    h.sum -= b.sum;
  }
  return d;
}

}  // namespace objbench
