// Before/after snapshots of the counters each layer already exposes:
// the process metrics registry, every volume's DiskManager counters and
// per-tag breakdown, the object caches and the MVCC version stores. Taken
// only while the system is quiescent, so the deltas are exact.
#ifndef OBJBENCH_LAYERS_H_
#define OBJBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mvcc/version_store.h"
#include "objstore/cache_manager.h"
#include "obs/io_context.h"
#include "storage/io_stats.h"

namespace objbench {

class Deployment;

struct HistogramTotals {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p99 = 0;  ///< cumulative over the process, not a delta
};

struct LayerSnapshot {
  objrep::IoCounters io;          ///< summed over every volume
  objrep::IoTagBreakdown tags;    ///< summed over every volume
  objrep::CacheManager::CacheStats cache;  ///< summed; zero without a cache
  objrep::MvccStats mvcc;         ///< summed; zero without MVCC
  uint64_t pages_in_use = 0;      ///< allocated minus freed, all volumes
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramTotals> histograms;

  static LayerSnapshot Take(const Deployment& d);

  uint64_t counter(const std::string& name) const;
  const HistogramTotals& histogram(const std::string& name) const;
};

/// after - before for every monotonic field (p99 and gauges-like fields
/// such as mvcc.versions_live keep the `after` value).
LayerSnapshot Delta(const LayerSnapshot& after, const LayerSnapshot& before);

/// Process user + system CPU seconds so far.
double ProcessCpuSeconds();

/// A memory field of /proc/self/status ("VmRSS", "VmHWM") in MiB.
double ProcStatusMiB(const std::string& field);

}  // namespace objbench

#endif  // OBJBENCH_LAYERS_H_
