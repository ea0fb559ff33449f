// objbench — the served benchmark of objrep (README.md).
//
//   objbench --workload NAME --seed N --seconds S --trace 0|1 [--small]
//
// --trace 0 measures the end-to-end metrics: set-up (median of several),
// then a warm-up and a closed loop of `--seconds` with no extras.
// --trace 1 measures the per-layer metrics: a plain and a traced closed
// loop of half the time each (their throughput ratio is the tracing
// overhead), registry and layer-stat deltas over the traced one, then the
// single-threaded replay. Both check every answer they can (checks.h).
//
// A human-readable report goes to stdout first; the last stdout line is
// one JSON object {"correct","attempted","failed","metrics"}. The exit
// code is 0 only when every answer was right and the exact-sum checks held.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "closed_loop.h"
#include "deployment.h"
#include "layers.h"
#include "replay.h"
#include "storage/page.h"
#include "workloads.h"

namespace objbench {
namespace {

using objrep::Query;
using objrep::Status;

/// The end-to-end window is cut into this many equal slices; throughput,
/// CPU and the retrieve percentiles are medians over them.
constexpr uint32_t kSlices = 5;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool small = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back(Metric{name, value, unit});
    std::printf("  %-36s %16.4f %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  /// A percentile of `sorted` nanosecond samples, reported in µs with its
  /// sample count; omitted (printed, not added) when fewer than ten
  /// samples lie beyond it.
  void AddPercentile(const std::string& name, const std::vector<uint64_t>& sorted,
                     double p, bool to_json = true) {
    double ns = 0;
    std::string note = "n=" + std::to_string(sorted.size());
    if (!Percentile(sorted, p, &ns)) {
      std::printf("  %-36s %16s %-6s %s (fewer than 10 samples beyond)\n",
                  name.c_str(), "omitted", "us", note.c_str());
      return;
    }
    if (to_json) {
      Add(name, ns / 1e3, "us", note);
    } else {
      std::printf("  %-36s %16.4f %-6s %s\n", name.c_str(), ns / 1e3, "us",
                  note.c_str());
    }
  }
  void Print(const std::string& name, double value, const std::string& unit,
             const std::string& note = "") const {
    std::printf("  %-36s %16.4f %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.10g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }
  /// The median over the phase's slices of each slice's percentile, which
  /// keeps a burst of outside interference in one slice from moving it. A
  /// percentile some slice cannot support is taken over the whole phase.
  void AddSlicedPercentile(const std::string& name, const PhaseStats& ph,
                           double p);

 private:
  std::vector<Metric> metrics_;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void Report::AddSlicedPercentile(const std::string& name, const PhaseStats& ph,
                                 double p) {
  std::vector<double> per_slice;
  for (const SliceStats& s : ph.slices) {
    double ns = 0;
    if (!Percentile(s.retrieve_ns, p, &ns)) break;
    per_slice.push_back(ns);
  }
  if (ph.slices.size() < 2 || per_slice.size() < ph.slices.size()) {
    AddPercentile(name, ph.retrieve_ns, p);
    return;
  }
  Add(name, Median(per_slice) / 1e3, "us",
      "n=" + std::to_string(ph.retrieve_ns.size()) + ", median of " +
          std::to_string(per_slice.size()) + " slices");
}

double MeanSpanUs(const std::vector<Span>& spans) {
  double ns = 0;
  for (const Span& s : spans) ns += static_cast<double>(s.end_ns - s.start_ns);
  return Ratio(ns / 1e3, static_cast<double>(spans.size()));
}

double MeanUs(const HistogramTotals& h) {
  return Ratio(static_cast<double>(h.sum), static_cast<double>(h.count));
}

int Usage() {
  std::fprintf(stderr,
               "usage: objbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--small]\nworkloads:");
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--small") {
      f->small = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (arg == "--workload") {
      f->workload = v;
    } else if (arg == "--seed") {
      f->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      f->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      f->trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return !f->workload.empty() && f->seconds > 0 &&
         (f->trace == 0 || f->trace == 1);
}

/// The answer checks that need a quiescent system; returns violations.
uint64_t RunChecks(Deployment* d, const std::vector<Query>& requests,
                   const MarkerOracle* oracle, LoopRecord* rec) {
  uint64_t bad = oracle != nullptr
                     ? oracle->CheckFinalState(d->db(), *rec, &rec->first_error)
                     : CheckSamples(d, requests, rec->samples, &rec->first_error);
  std::printf("checks: %llu wrong answers inline, %llu after the run "
              "(%zu samples, %zu updates acknowledged)\n",
              static_cast<unsigned long long>(rec->wrong),
              static_cast<unsigned long long>(bad), rec->samples.size(),
              rec->acked_markers.size());
  return bad;
}

void AddEndToEnd(const Deployment& d, const PhaseStats& ph,
                 const LayerSnapshot& delta, const std::vector<double>& setups,
                 double setup_rss_mb, const LoopRecord& rec, Report* r) {
  const double q = static_cast<double>(ph.ok());
  std::vector<double> qps, cpu_us;
  for (const SliceStats& s : ph.slices) {
    qps.push_back(Ratio(static_cast<double>(s.ok), s.seconds));
    cpu_us.push_back(Ratio(s.cpu_s * 1e6, static_cast<double>(s.ok)));
  }
  const std::string slices = std::to_string(ph.slices.size()) + " slices";
  r->Print("throughput_qps", Median(qps), "1/s", "median of " + slices);
  r->AddSlicedPercentile("retrieve_p50_us", ph, 0.50);
  r->AddPercentile("retrieve_p90_us", ph.retrieve_ns, 0.90, /*to_json=*/false);
  r->AddPercentile("retrieve_p99_us", ph.retrieve_ns, 0.99, /*to_json=*/false);
  r->AddPercentile("update_p50_us", ph.update_ns, 0.50, /*to_json=*/false);
  r->AddPercentile("update_p99_us", ph.update_ns, 0.99, /*to_json=*/false);
  r->Print("io_per_query", Ratio(static_cast<double>(delta.io.total()), q),
           "count", "physical page reads + writes, all volumes");
  r->Add("cpu_us_per_query", Median(cpu_us), "us", "median of " + slices);
  r->Print("error_rate",
           Ratio(static_cast<double>(rec.failed), static_cast<double>(rec.attempted)),
           "ratio");
  std::string runs;
  for (double s : setups) {
    if (!runs.empty()) runs += ",";
    runs += std::to_string(s);
  }
  r->Add("setup_s", Median(setups), "s", "median of [" + runs + "]");
  r->Add("setup_rss_mb", setup_rss_mb, "MiB", "resident after set-up");
  r->Print("rss_mb", ProcStatusMiB("VmRSS"), "MiB", "resident at the end");
  r->Print("peak_rss_mb", ProcStatusMiB("VmHWM"), "MiB");
  r->Add("space_amp",
         Ratio(static_cast<double>(delta.pages_in_use) * objrep::kPageSize,
               static_cast<double>(d.UserBytes())),
         "ratio");
}

void AddPerLayer(const Deployment& d, const PhaseStats& plain,
                 const PhaseStats& traced, const LayerSnapshot& dl,
                 const LoopRecord& rec, const ReplayResult& rp, Report* r) {
  const double q = static_cast<double>(traced.ok());
  const double retrieves = static_cast<double>(traced.ok_retrieves);
  const double updates = static_cast<double>(traced.ok_updates);
  auto per_query = [&](const std::string& counter) {
    return Ratio(static_cast<double>(dl.counter(counter)), q);
  };
  const bool sharded = d.volumes().size() > 1;

  std::printf("\n[end to end, plain loop]\n");
  r->Add("storage.io_per_query", Ratio(static_cast<double>(dl.io.total()), q),
         "count");
  r->Add("throughput_qps", Ratio(static_cast<double>(plain.ok()), plain.elapsed_s),
         "1/s");
  r->AddPercentile("retrieve_p90_us", plain.retrieve_ns, 0.90, /*to_json=*/false);
  r->AddPercentile("retrieve_p99_us", plain.retrieve_ns, 0.99, /*to_json=*/false);
  r->AddPercentile("update_p50_us", plain.update_ns, 0.50, /*to_json=*/false);
  r->AddPercentile("update_p99_us", plain.update_ns, 0.99, /*to_json=*/false);
  r->Add("retrieve_samples", static_cast<double>(plain.retrieve_ns.size()),
         "count");
  r->Add("update_samples", static_cast<double>(plain.update_ns.size()),
         "count");
  r->Add("error_rate",
         Ratio(static_cast<double>(rec.failed), static_cast<double>(rec.attempted)),
         "ratio");
  r->Add("rss_mb", ProcStatusMiB("VmRSS"), "MiB", "resident at the end");
  r->Add("peak_rss_mb", ProcStatusMiB("VmHWM"), "MiB");

  std::printf("[net]\n");
  const HistogramTotals& req_r = dl.histogram("net.request_us.RETRIEVE");
  const HistogramTotals& req_u = dl.histogram("net.request_us.UPDATE");
  const HistogramTotals& queue = dl.histogram("threadpool.queue_wait_us");
  const double execute_mean =
      Ratio(static_cast<double>(req_r.sum + req_u.sum),
            static_cast<double>(req_r.count + req_u.count));
  r->Add("net.self_us", MeanSpanUs(traced.spans) - MeanUs(queue) - execute_mean,
         "us", "client span - queue wait - execute");
  const double requests = static_cast<double>(dl.counter("net.requests"));
  r->Add("net.bytes_in_per_req",
         Ratio(static_cast<double>(dl.counter("net.bytes_in")), requests), "B");
  r->Add("net.bytes_out_per_req",
         Ratio(static_cast<double>(dl.counter("net.bytes_out")), requests), "B");

  std::printf("[threadpool]\n");
  r->Add("threadpool.queue_wait_us", MeanUs(queue), "us");
  r->Add("threadpool.queue_wait_p99_us", static_cast<double>(queue.p99), "us",
         "log2 bucket edge, whole process");
  r->Add("threadpool.task_run_us",
         MeanUs(dl.histogram("threadpool.task_run_us")), "us");

  std::printf("[service]\n");
  r->Add("service.execute_us.retrieve", MeanUs(req_r), "us");
  r->Add("service.execute_us.update", MeanUs(req_u), "us");

  std::printf("[exec]\n");
  r->Add("exec.lock_waits_per_query", per_query("lock.waits"), "count");
  r->Add("exec.lock_wait_us",
         Ratio(static_cast<double>(dl.histogram("lock.wait_us").sum), q), "us",
         "per query");

  std::printf("[core]\n");
  r->Add("core.retrieve_us", rp.core_us, "us", "replay");
  r->Add("core.rows_per_retrieve",
         Ratio(static_cast<double>(traced.rows), retrieves), "count");

  std::printf("[shard]\n");
  r->Add("shard.subqueries_per_retrieve",
         Ratio(static_cast<double>(dl.counter("shard.retrieve_subqueries")),
               retrieves),
         "count");
  r->Add("shard.fanout_us", sharded ? rp.core_us - rp.shard_sum_us : 0, "us",
         "replay");

  std::printf("[relational]\n");
  r->Add("relational.sort_runs_per_query", per_query("sort.runs_formed"),
         "count");
  r->Add("relational.spill_pages_per_query", per_query("sort.spill_pages"),
         "count");
  r->Add("relational.merge_passes_per_query", per_query("sort.merge_passes"),
         "count");

  std::printf("[objstore]\n");
  r->Add("objstore.cache_hit_ratio",
         Ratio(static_cast<double>(dl.cache.hits),
               static_cast<double>(dl.cache.hits + dl.cache.misses)),
         "ratio");
  r->Add("objstore.cache_inserts_per_query",
         Ratio(static_cast<double>(dl.cache.inserts), q), "count");
  r->Add("objstore.invalidations_per_update",
         Ratio(static_cast<double>(dl.cache.invalidated_units), updates),
         "count");

  std::printf("[mvcc]\n");
  r->Add("mvcc.conflicts_per_update",
         Ratio(static_cast<double>(dl.mvcc.conflicts), updates), "count");
  r->Add("mvcc.live_versions", static_cast<double>(dl.mvcc.versions_live),
         "count", "at the end of the run");
  r->Add("mvcc.gc_runs", static_cast<double>(dl.mvcc.gc_runs), "count");

  std::printf("[storage]\n");
  const double pool_hits = static_cast<double>(dl.counter("pool.hits"));
  r->Add("storage.pool_hit_ratio",
         Ratio(pool_hits, pool_hits + static_cast<double>(dl.counter("pool.misses"))),
         "ratio");
  r->Add("storage.evictions_per_query", per_query("pool.evictions"), "count");
  r->Add("storage.miss_coalesced_per_query", per_query("pool.miss.coalesced"),
         "count");
  r->Add("storage.seq_read_frac", dl.io.seq_fraction(), "ratio");
  r->Add("storage.device_us_per_query", per_query("disk.device_us"), "us");
  for (size_t t = 0; t < objrep::kNumIoTags; ++t) {
    const auto tag = static_cast<objrep::IoTag>(t);
    r->Add(std::string("storage.io_by_tag.") + objrep::IoTagName(tag),
           Ratio(static_cast<double>(dl.tags.total_for(tag)), q), "count");
  }
  r->Add("storage.wal_syncs_per_update",
         Ratio(static_cast<double>(dl.counter("wal.syncs")), updates), "count");
  r->Add("storage.wal_bytes_per_update",
         Ratio(static_cast<double>(dl.counter("wal.bytes")), updates), "B");

  std::printf("[replay: %u retrieves, single-threaded]\n", rp.retrieves);
  r->Add("replay.client_us", rp.client_us, "us", "ObjClient::Call");
  r->Add("replay.net_self_us", rp.net_self_us(), "us");
  r->Add("replay.queue_us", rp.queue_us, "us");
  r->Add("replay.service_self_us", rp.service_self_us(), "us",
         "ObjService::Execute - core");
  r->Add("replay.core_self_us", rp.core_self_us(), "us");
  r->Add("replay.storage_us", rp.storage_us, "us", "simulated device");
  r->Add("replay.residual_us", rp.residual_us(), "us",
         "client - sum of layers");
  r->Add("replay.residual_frac", Ratio(rp.residual_us(), rp.client_us),
         "ratio");

  std::printf("[tracing]\n");
  const double plain_qps = Ratio(static_cast<double>(plain.ok()), plain.elapsed_s);
  const double traced_qps = Ratio(q, traced.elapsed_s);
  r->Add("trace.plain_qps", plain_qps, "1/s");
  r->Add("trace.traced_qps", traced_qps, "1/s");
  r->Add("trace.overhead_frac", 1 - Ratio(traced_qps, plain_qps), "ratio");
}

int Run(const Flags& flags) {
  WorkloadDef def;
  if (!FindWorkload(flags.workload, flags.small, &def)) return Usage();
  const bool traced_run = flags.trace == 1;
  std::printf("objbench %s seed=%llu seconds=%g trace=%d%s\n",
              def.name.c_str(), static_cast<unsigned long long>(flags.seed),
              flags.seconds, flags.trace, flags.small ? " (small)" : "");
  std::printf("%s\n", def.Describe().c_str());
  if (!MoveToCpus(def.cpus, 0)) {
    std::fprintf(stderr, "cannot confine the process to %u CPUs\n", def.cpus);
    return 1;
  }

  // Set-up, repeated; only the last deployment is kept.
  const uint32_t repeats = traced_run ? 1 : def.setup_repeats;
  const uint32_t num_requests = def.RequestsFor(flags.seconds);
  std::vector<Query> requests;
  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  for (uint32_t i = 0; i < repeats; ++i) {
    d.reset();
    double setup_s = 0;
    Status s = Deployment::Create(def, flags.seed, num_requests,
                                  i + 1 == repeats ? &requests : nullptr, &d,
                                  &setup_s);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setups.push_back(setup_s);
  }
  const double setup_rss_mb = ProcStatusMiB("VmRSS");

  std::unique_ptr<MarkerOracle> oracle;
  if (!def.read_only()) {
    oracle = std::make_unique<MarkerOracle>(*d->db(), requests);
  }
  ClosedLoop loop(d.get(), &requests, oracle.get());
  if (Status s = loop.Connect(); !s.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    return 1;
  }
  loop.RunPhase(def.warmup_s, /*record=*/false, /*traced=*/false);

  PhaseStats plain;
  if (traced_run) plain = loop.RunPhase(flags.seconds / 2, true, false);
  LayerSnapshot before = LayerSnapshot::Take(*d);
  PhaseStats measured =
      traced_run ? loop.RunPhase(flags.seconds / 2, true, true)
                 : loop.RunPhase(flags.seconds, true, false, kSlices);
  LayerSnapshot delta = Delta(LayerSnapshot::Take(*d), before);

  LoopRecord rec = loop.Record();
  const uint64_t bad_after = RunChecks(d.get(), requests, oracle.get(), &rec);
  rec.failed += bad_after;
  bool correct = rec.wrong == 0 && bad_after == 0;

  Report report;
  if (!traced_run) {
    std::printf("\n[end to end]\n");
    AddEndToEnd(*d, measured, delta, setups, setup_rss_mb, rec, &report);
  } else {
    const bool exact = delta.tags.total() == delta.io.total();
    std::printf("exact sum: io_by_tag %llu %s disk reads + writes %llu\n",
                static_cast<unsigned long long>(delta.tags.total()),
                exact ? "==" : "!=",
                static_cast<unsigned long long>(delta.io.total()));
    correct = correct && exact;
    ReplayResult rp;
    if (Status s = Replay(d.get(), requests, def.replay_retrieves, &rp);
        !s.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", s.ToString().c_str());
      return 1;
    }
    AddPerLayer(*d, plain, measured, delta, rec, rp, &report);
  }
  if (!rec.first_error.empty()) {
    std::printf("first error: %s\n", rec.first_error.c_str());
  }
  d.reset();

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rec.attempted),
              static_cast<unsigned long long>(rec.failed),
              report.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace objbench

int main(int argc, char** argv) {
  objbench::Flags flags;
  if (!objbench::ParseFlags(argc, argv, &flags)) return objbench::Usage();
  return objbench::Run(flags);
}
