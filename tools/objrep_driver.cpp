// objrep_driver — the analog of the paper's EQUEL/C driver (§4): reads an
// experiment config, builds the database, generates the query sequence,
// runs it under each named strategy, and reports average I/O.
//
//   $ ./build/tools/objrep_driver configs/fig3_point.cfg
//   $ ./build/tools/objrep_driver -        # read config from stdin
//
// Concurrent mode (the execution engine, src/exec/): with --threads=K the
// query stream is partitioned across K worker sessions over one shared
// database, and the report adds throughput (queries/sec) and latency
// percentiles alongside the aggregate I/O bill.
//
//   $ ./build/tools/objrep_driver --threads=8 configs/fig3_point.cfg
//   $ ./build/tools/objrep_driver --threads=8 --duration=5 cfg   # timed run
//   $ ./build/tools/objrep_driver --num-queries=5000 cfg
//
// Observability (DESIGN.md §11): --trace-out=FILE writes a Chrome/Perfetto
// trace of the run, --metrics-json=FILE dumps the metrics registry at
// exit, --metrics-interval=MS streams registry snapshots to stderr while
// running. After the per-strategy report the driver prints an I/O
// attribution table splitting each strategy's page traffic by component
// tag (parent scan, index probes, temp/sort, cache, ...).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <csignal>

#include "core/adaptive.h"
#include "core/experiment_config.h"
#include "core/runner.h"
#include "exec/concurrent_runner.h"
#include "net/server.h"
#include "obs/io_context.h"
#include "shard/engine.h"
#include "shard/sharded_db.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "objstore/database.h"
#include "storage/fault_injector.h"
#include "util/parse_number.h"

using namespace objrep;

namespace {

struct DriverFlags {
  uint32_t threads = 0;       // 0: sequential runner (the default report)
  uint32_t num_queries = 0;   // 0: keep the config's value
  double duration_seconds = 0;  // >0: timed run (resamples the stream)
  // I/O scheduling overrides (-1: keep the config's value).
  int prefetch = -1;            // --prefetch=on/off
  int64_t io_latency_us = -1;     // --io-latency-us=U (seek per segment)
  // Durability / fault injection (DESIGN.md §10).
  int wal = -1;                 // --wal=on/off (overrides the WAL key)
  int mvcc = -1;                // --mvcc=on/off (overrides the MVCC key)
  uint64_t fault_seed = 0;      // --fault-seed=N (injector rng)
  double fault_rate = 0;        // --fault-rate=P (per-I/O failure prob.)
  std::string fault_crash_point;  // --fault-crash-point=NAME[:HIT]
  uint32_t fault_crash_hit = 1;   // ... its HIT (0 reads as 1)
  // Observability (DESIGN.md §11).
  std::string metrics_json;     // --metrics-json=FILE (registry at exit)
  std::string trace_out;        // --trace-out=FILE (Chrome/Perfetto JSON)
  uint64_t metrics_interval_ms = 0;  // --metrics-interval=MS (to stderr)
  // Adaptive engine (DESIGN.md §12).
  std::string strategy;         // --strategy=NAME (override config list)
  int64_t calibration_window = -1;  // --calibration-window=N
  // Network server (DESIGN.md §13).
  bool serve = false;           // --serve: run the server, not the report
  int64_t port = -1;            // --port=N (overrides net_port)
  int64_t max_inflight = -1;    // --max-inflight=N (overrides config)
  // Per-query profiles & heat (DESIGN.md §16).
  bool profile = false;         // --profile: print a RetrieveProfile and exit
  int64_t slow_query_us = 0;    // --slow-query-us=N (serve: arm the ring)
  int heat = -1;                // --heat=on/off (serve: heat-map tracking)
  // Horizontal sharding (DESIGN.md §14).
  int64_t shards = -1;          // --shards=N (overrides the shards key)
  std::string config_path;
};

net::ObjServer* g_server = nullptr;  // SIGINT/SIGTERM -> graceful drain

void HandleStopSignal(int) {
  if (g_server != nullptr) g_server->RequestStop();  // async-signal-safe
}

/// --serve: build the database once, serve it until SIGINT/SIGTERM or a
/// SHUTDOWN verb, then drain and report. With shards > 1 the server fronts
/// a scatter-gather ShardedEngine instead of a single database.
int RunServer(const DriverFlags& flags, const ExperimentConfig& config) {
  std::unique_ptr<ComplexDatabase> db;
  std::unique_ptr<shard::ShardedDatabase> sdb;
  std::unique_ptr<shard::ShardedEngine> engine;
  Status s;
  if (config.shards > 1) {
    s = shard::BuildShardedDatabase(config.db, config.shards, &sdb);
    if (s.ok()) {
      engine =
          std::make_unique<shard::ShardedEngine>(sdb.get(), config.options);
    }
  } else {
    s = BuildDatabase(config.db, &db);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
    return 1;
  }

  net::ServerConfig sc;
  sc.port = static_cast<uint16_t>(
      flags.port >= 0 ? flags.port : config.net_port);
  sc.num_workers = config.net_workers;
  sc.max_inflight = flags.max_inflight > 0
                        ? static_cast<uint32_t>(flags.max_inflight)
                        : config.net_max_inflight;
  sc.default_strategy = config.strategies.front();
  sc.strategy_options = config.options;
  sc.slow_query_us = static_cast<uint64_t>(flags.slow_query_us);
  if (flags.heat >= 0) sc.enable_heat = flags.heat == 1;
  if (!flags.trace_out.empty()) Trace::SetEnabled(true);

  std::unique_ptr<net::ObjServer> server =
      engine != nullptr ? std::make_unique<net::ObjServer>(engine.get(), sc)
                        : std::make_unique<net::ObjServer>(db.get(), sc);
  s = server->Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  g_server = server.get();
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  std::printf(
      "serving on %s:%u (workers=%u max_inflight=%u default=%s shards=%u)\n",
      sc.host.c_str(), server->port(), sc.num_workers, sc.max_inflight,
      StrategyKindName(sc.default_strategy),
      engine != nullptr ? engine->num_shards() : 1);
  std::fflush(stdout);

  server->Wait();
  net::ObjServer::Stats st = server->stats();
  server->Stop();
  g_server = nullptr;
  std::printf(
      "server drained: %llu conns, %llu admitted, %llu responses, "
      "%llu busy-rejected, %llu bad frames\n",
      static_cast<unsigned long long>(st.accepted),
      static_cast<unsigned long long>(st.requests_admitted),
      static_cast<unsigned long long>(st.responses),
      static_cast<unsigned long long>(st.busy_rejected),
      static_cast<unsigned long long>(st.bad_frames));
  if (!flags.trace_out.empty()) {
    // Server-side half of a cross-process trace: merge with the client's
    // file via tools/trace_summary.py (spans stitch by trace id).
    Status ts = Trace::FlushToFile(flags.trace_out);
    if (!ts.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", ts.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

/// --profile: one profiled RETRIEVE per configured strategy, through the
/// same ObjService path the wire's PROFILE flag takes — the printed JSON
/// is byte-identical to what a remote client receives.
int RunProfileReport(const DriverFlags& flags, const ExperimentConfig& config) {
  (void)flags;
  for (StrategyKind kind : config.strategies) {
    std::unique_ptr<ComplexDatabase> db;
    std::unique_ptr<shard::ShardedDatabase> sdb;
    std::unique_ptr<shard::ShardedEngine> engine;
    std::unique_ptr<net::ObjService> service;
    Status s;
    if (config.shards > 1) {
      s = shard::BuildShardedDatabase(config.db, config.shards, &sdb);
      if (s.ok()) {
        engine =
            std::make_unique<shard::ShardedEngine>(sdb.get(), config.options);
        service = std::make_unique<net::ObjService>(engine.get(), kind,
                                                    config.options);
      }
    } else {
      s = BuildDatabase(config.db, &db);
      if (s.ok()) {
        service =
            std::make_unique<net::ObjService>(db.get(), kind, config.options);
      }
    }
    if (!s.ok()) {
      std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
      return 1;
    }

    net::Request req;
    req.verb = net::Verb::kRetrieve;
    req.flags = net::kReqFlagProfile;
    req.lo_parent = 0;
    req.num_top = config.workload.num_top;
    req.attr_index = 0;
    net::Response resp = service->Execute(req);
    if (resp.status != net::RespStatus::kOk) {
      std::fprintf(stderr, "%s: %s\n", StrategyKindName(kind),
                   resp.error.c_str());
      return 1;
    }
    std::printf("%s %s\n", StrategyKindName(kind), resp.profile_json.c_str());
  }
  return 0;
}

/// Physical I/O summed across every shard's disk (the sharded analog of
/// db->disk->counters()).
IoCounters SumShardCounters(const shard::ShardedDatabase& sdb) {
  IoCounters total;
  for (const auto& sh : sdb.shards) total += sh->disk->counters();
  return total;
}

/// shards > 1 without --serve: the sequential report over a scatter-gather
/// engine. Same table shape as the single-engine report; avg I/O is the
/// aggregate over all shards (each sub-query runs on its owning shard, so
/// the sum is the cross-cluster bill for the same logical workload).
int RunShardedReport(const ExperimentConfig& config) {
  std::printf("\n%-16s %12s %12s %12s %12s\n", "strategy", "avg I/O",
              "retrieve", "update", "result-sum");
  for (StrategyKind kind : config.strategies) {
    // Fresh sharded store per strategy, mirroring the single-engine loop:
    // identical contents (same seed), no inherited buffer or cache state.
    std::unique_ptr<shard::ShardedDatabase> sdb;
    Status s = shard::BuildShardedDatabase(config.db, config.shards, &sdb);
    if (!s.ok()) {
      std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
      return 1;
    }
    // The retained reference database gives the generator the same shape —
    // and therefore the same query stream — as an unsharded run.
    std::vector<Query> queries;
    s = GenerateWorkload(config.workload, *sdb->reference, &queries);
    if (!s.ok()) {
      std::fprintf(stderr, "workload failed: %s\n", s.ToString().c_str());
      return 1;
    }
    shard::ShardedEngine engine(sdb.get(), config.options);

    uint64_t retrieve_io = 0, update_io = 0;
    uint32_t num_retrieves = 0, num_updates = 0;
    int64_t result_sum = 0;
    IoCounters run_start = SumShardCounters(*sdb);
    for (const Query& q : queries) {
      IoCounters before = SumShardCounters(*sdb);
      if (q.kind == Query::Kind::kRetrieve) {
        RetrieveResult result;
        s = engine.ExecuteRetrieve(kind, q, &result);
        if (!s.ok()) break;
        retrieve_io += (SumShardCounters(*sdb) - before).total();
        for (int32_t v : result.values) result_sum += v;
        ++num_retrieves;
      } else {
        s = engine.ExecuteUpdate(kind, q);
        if (!s.ok()) break;
        update_io += (SumShardCounters(*sdb) - before).total();
        ++num_updates;
      }
    }
    // Quiescent point: fold the MVCC versions, then flush deferred dirty
    // pages — both part of the bill, as in RunWorkload.
    if (s.ok()) s = engine.FoldAll();
    if (s.ok()) {
      for (const auto& sh : sdb->shards) {
        s = sh->pool->FlushAll();
        if (!s.ok()) break;
      }
    }
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", StrategyKindName(kind),
                   s.ToString().c_str());
      return 1;
    }
    uint64_t total_io = (SumShardCounters(*sdb) - run_start).total();
    uint32_t num_queries = num_retrieves + num_updates;
    std::printf("%-16s %12.1f %12.1f %12.1f %12lld\n", StrategyKindName(kind),
                num_queries ? static_cast<double>(total_io) / num_queries : 0.0,
                num_retrieves
                    ? static_cast<double>(retrieve_io) / num_retrieves
                    : 0.0,
                num_updates ? static_cast<double>(update_io) / num_updates
                            : 0.0,
                static_cast<long long>(result_sum));
  }
  return 0;
}

/// The plans ADAPTIVE may pick. Plan choices are exposed through the
/// metrics registry ("adaptive.plan.<NAME>" counters, the registry pattern
/// the per-worker calibration state reports through), so the driver can
/// delta-snapshot them around a run in both sequential and concurrent mode.
constexpr StrategyKind kAdaptivePlans[] = {
    StrategyKind::kDfs, StrategyKind::kBfs, StrategyKind::kDfsCache,
    StrategyKind::kSmart, StrategyKind::kDfsClust,
};

struct PlanCountSnapshot {
  uint64_t counts[std::size(kAdaptivePlans)] = {};

  static PlanCountSnapshot Take() {
    PlanCountSnapshot s;
    for (size_t i = 0; i < std::size(kAdaptivePlans); ++i) {
      s.counts[i] = MetricsRegistry::Global()
                        .GetCounter(std::string("adaptive.plan.") +
                                    StrategyKindName(kAdaptivePlans[i]))
                        ->value();
    }
    return s;
  }
};

void PrintPlanChoices(const PlanCountSnapshot& before) {
  PlanCountSnapshot after = PlanCountSnapshot::Take();
  std::printf("%-16s", "  plan choices:");
  for (size_t i = 0; i < std::size(kAdaptivePlans); ++i) {
    uint64_t n = after.counts[i] - before.counts[i];
    if (n == 0) continue;
    std::printf(" %s=%llu", StrategyKindName(kAdaptivePlans[i]),
                static_cast<unsigned long long>(n));
  }
  std::printf("\n");
}

/// Background snapshot streamer for --metrics-interval: one JSON line of
/// the whole registry to stderr every interval until stopped.
class MetricsStreamer {
 public:
  explicit MetricsStreamer(uint64_t interval_ms) : interval_ms_(interval_ms) {
    if (interval_ms_ > 0) thread_ = std::thread([this] { Loop(); });
  }
  ~MetricsStreamer() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> l(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> l(mu_);
    while (!cv_.wait_for(l, std::chrono::milliseconds(interval_ms_),
                         [this] { return stop_; })) {
      std::string json = MetricsRegistry::Global().ToJson();
      std::fprintf(stderr, "metrics: %s\n", json.c_str());
    }
  }

  const uint64_t interval_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// One row of the attribution table.
struct AttributionRow {
  std::string strategy;
  IoTagBreakdown tags;
};

void PrintAttributionTable(const std::vector<AttributionRow>& rows) {
  if (rows.empty()) return;
  // Only tags that moved for at least one strategy get a column.
  std::vector<IoTag> cols;
  for (size_t t = 0; t < kNumIoTags; ++t) {
    for (const AttributionRow& row : rows) {
      if (row.tags.total_for(static_cast<IoTag>(t)) > 0) {
        cols.push_back(static_cast<IoTag>(t));
        break;
      }
    }
  }
  std::printf("\nI/O attribution (pages; %% of strategy total):\n");
  std::printf("%-16s", "strategy");
  for (IoTag t : cols) std::printf(" %18s", IoTagName(t));
  std::printf(" %12s\n", "total");
  for (const AttributionRow& row : rows) {
    uint64_t total = row.tags.total();
    std::printf("%-16s", row.strategy.c_str());
    for (IoTag t : cols) {
      uint64_t n = row.tags.total_for(t);
      double pct = total > 0 ? 100.0 * static_cast<double>(n) /
                                   static_cast<double>(total)
                             : 0.0;
      std::printf(" %10llu (%4.1f%%)", static_cast<unsigned long long>(n),
                  pct);
    }
    std::printf(" %12llu\n", static_cast<unsigned long long>(total));
  }
}

bool ParseFlag(const char* arg, const char* name, const char** value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--threads=K] [--num-queries=N] [--duration=S]\n"
               "          [--prefetch=on|off] [--io-latency-us=U]\n"
               "          [--wal=on|off] [--mvcc=on|off] [--fault-seed=N] "
               "[--fault-rate=P]\n"
               "          [--fault-crash-point=NAME[:HIT]]\n"
               "          [--metrics-json=FILE] [--trace-out=FILE]\n"
               "          [--metrics-interval=MS] [--strategy=NAME]\n"
               "          [--calibration-window=N]\n"
               "          [--serve] [--port=N] [--max-inflight=N]\n"
               "          [--slow-query-us=N] [--heat=on|off]\n"
               "          [--profile]\n"
               "          [--shards=N]\n"
               "          <config-file | ->\n"
               "--serve runs the network server (DESIGN.md §13) over the\n"
               "config's database until SIGINT/SIGTERM or a SHUTDOWN verb;\n"
               "the first configured strategy is the server default\n"
               "--profile prints one RetrieveProfile (EXPLAIN ANALYZE) per\n"
               "strategy: per-tag I/O, cache hits, waits, per-shard timing\n"
               "--slow-query-us arms the slow-query ring while serving;\n"
               "--heat=off disables the traffic heat map (DESIGN.md §16)\n"
               "--shards=N hash-partitions the store across N engine\n"
               "instances with scatter-gather execution (DESIGN.md §14)\n"
               "--strategy overrides the config's STRATEGIES list (e.g.\n"
               "--strategy=adaptive); --calibration-window sets ADAPTIVE's\n"
               "EWMA horizon\n"
               "see src/core/experiment_config.h for the config format;\n"
               "--fault-crash-point=list prints the registered points\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  DriverFlags flags;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (ParseFlag(argv[i], "--threads", &v)) {
      if (!ParseNumber<uint32_t>(v, &flags.threads) || flags.threads == 0) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--num-queries", &v)) {
      if (!ParseNumber<uint32_t>(v, &flags.num_queries)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--duration", &v)) {
      if (!ParseNumber<double>(v, &flags.duration_seconds) ||
          flags.duration_seconds < 0) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--prefetch", &v)) {
      if (std::strcmp(v, "on") == 0) flags.prefetch = 1;
      else if (std::strcmp(v, "off") == 0) flags.prefetch = 0;
      else return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--io-latency-us", &v)) {
      if (!ParseNumber<uint32_t>(v, &flags.io_latency_us)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--wal", &v)) {
      if (std::strcmp(v, "on") == 0) flags.wal = 1;
      else if (std::strcmp(v, "off") == 0) flags.wal = 0;
      else return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--mvcc", &v)) {
      if (std::strcmp(v, "on") == 0) flags.mvcc = 1;
      else if (std::strcmp(v, "off") == 0) flags.mvcc = 0;
      else return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--fault-seed", &v)) {
      if (!ParseNumber<uint64_t>(v, &flags.fault_seed)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--fault-rate", &v)) {
      if (!ParseNumber<double>(v, &flags.fault_rate) || flags.fault_rate < 0 ||
          flags.fault_rate > 1) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--fault-crash-point", &v)) {
      flags.fault_crash_point = v;
      const char* colon = std::strchr(v, ':');
      if (colon != nullptr &&
          !ParseNumber<uint32_t>(colon + 1, &flags.fault_crash_hit)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--metrics-json", &v)) {
      flags.metrics_json = v;
    } else if (ParseFlag(argv[i], "--trace-out", &v)) {
      flags.trace_out = v;
    } else if (ParseFlag(argv[i], "--metrics-interval", &v)) {
      if (!ParseNumber<uint64_t>(v, &flags.metrics_interval_ms)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--strategy", &v)) {
      flags.strategy = v;
    } else if (ParseFlag(argv[i], "--calibration-window", &v)) {
      if (!ParseNumber<uint32_t>(v, &flags.calibration_window) ||
          flags.calibration_window <= 0) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      flags.serve = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      flags.profile = true;
    } else if (ParseFlag(argv[i], "--slow-query-us", &v)) {
      if (!ParseNumber<uint32_t>(v, &flags.slow_query_us)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--heat", &v)) {
      if (std::strcmp(v, "on") == 0) flags.heat = 1;
      else if (std::strcmp(v, "off") == 0) flags.heat = 0;
      else return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--port", &v)) {
      if (!ParseNumber<uint32_t>(v, &flags.port) || flags.port > 65535) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--max-inflight", &v)) {
      if (!ParseNumber<uint32_t>(v, &flags.max_inflight) ||
          flags.max_inflight <= 0) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--shards", &v)) {
      if (!ParseNumber<uint32_t>(v, &flags.shards) || flags.shards <= 0) {
        return Usage(argv[0]);
      }
    } else if (argv[i][0] == '-' && argv[i][1] == '-') {
      return Usage(argv[0]);
    } else if (flags.config_path.empty()) {
      flags.config_path = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (flags.config_path.empty()) return Usage(argv[0]);

  std::string text;
  if (flags.config_path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  } else {
    std::ifstream in(flags.config_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", flags.config_path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }

  ExperimentConfig config;
  Status s = ParseExperimentConfig(text, &config);
  if (!s.ok()) {
    std::fprintf(stderr, "config error: %s\n", s.ToString().c_str());
    return 1;
  }
  if (!flags.strategy.empty()) {
    StrategyKind kind;
    s = ParseStrategyName(flags.strategy, &kind);
    if (!s.ok()) {
      std::fprintf(stderr, "config error: %s\n", s.ToString().c_str());
      return 2;
    }
    config.strategies.assign(1, kind);
    config.db = WithStructuresFor(config.db, config.strategies);
  }
  if (flags.calibration_window > 0) {
    config.options.calibration_window =
        static_cast<uint32_t>(flags.calibration_window);
  }
  if (flags.num_queries > 0) config.workload.num_queries = flags.num_queries;
  if (flags.prefetch >= 0) config.db.prefetch = flags.prefetch == 1;
  if (flags.io_latency_us >= 0) {
    config.db.io_latency_us = static_cast<uint32_t>(flags.io_latency_us);
  }
  if (flags.wal >= 0) config.db.enable_wal = flags.wal == 1;
  if (flags.mvcc >= 0) config.db.enable_mvcc = flags.mvcc == 1;
  if (flags.shards > 0) config.shards = static_cast<uint32_t>(flags.shards);

  if (flags.serve) return RunServer(flags, config);
  if (flags.profile) return RunProfileReport(flags, config);

  if (flags.fault_crash_point == "list") {
    for (const std::string& name : FaultInjector::RegisteredCrashPoints()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  std::string crash_point = flags.fault_crash_point;
  const uint32_t crash_hit = std::max<uint32_t>(flags.fault_crash_hit, 1);
  if (size_t colon = crash_point.find(':'); colon != std::string::npos) {
    crash_point.resize(colon);
  }
  if (!crash_point.empty()) {
    const auto& points = FaultInjector::RegisteredCrashPoints();
    if (std::find(points.begin(), points.end(), crash_point) ==
        points.end()) {
      std::fprintf(stderr,
                   "unknown crash point '%s' (--fault-crash-point=list)\n",
                   crash_point.c_str());
      return 2;
    }
  }
  const bool faults = flags.fault_rate > 0 || !crash_point.empty();
  if (faults && !config.db.enable_wal) {
    std::fprintf(stderr,
                 "note: faults without --wal=on; failures will not be "
                 "recoverable\n");
  }

  std::printf(
      "database: |ParentRel|=%u SizeUnit=%u Use=%u Overlap=%u "
      "(ShareFactor=%u) child_rels=%u buffer=%u%s%s\n",
      config.db.num_parents, config.db.size_unit, config.db.use_factor,
      config.db.overlap_factor, config.db.share_factor(),
      config.db.num_child_rels, config.db.buffer_pages,
      config.db.build_cache ? " cache" : "",
      config.db.build_cluster ? " cluster" : "");
  std::printf(
      "workload: %u queries, NumTop=%u, Pr(UPDATE)=%.2f, batch=%u, "
      "seed=%llu\n",
      config.workload.num_queries, config.workload.num_top,
      config.workload.pr_update, config.workload.update_batch,
      static_cast<unsigned long long>(config.workload.seed));

  if (config.shards > 1) {
    if (flags.threads > 0 || faults) {
      std::fprintf(stderr,
                   "--shards report mode supports neither --threads nor "
                   "fault injection; use --serve for a concurrent sharded "
                   "server\n");
      return 2;
    }
    std::printf("engine: %u shards (scatter-gather)\n", config.shards);
    return RunShardedReport(config);
  }

  if (!flags.trace_out.empty()) Trace::SetEnabled(true);
  MetricsStreamer streamer(flags.metrics_interval_ms);
  std::vector<AttributionRow> attribution;

  const bool concurrent = flags.threads > 0;
  if (concurrent) {
    std::printf("engine: %u worker threads%s\n\n", flags.threads,
                flags.duration_seconds > 0 ? " (timed)" : "");
    std::printf("%-16s %10s %10s %10s %10s %10s %12s\n", "strategy",
                "queries/s", "p50 ms", "p95 ms", "p99 ms", "avg I/O",
                "result-sum");
  } else {
    std::printf("\n%-16s %12s %12s %12s %10s %8s %12s\n", "strategy",
                "avg I/O", "retrieve", "update", "hit-rate", "seq%",
                "result-sum");
  }

  for (StrategyKind kind : config.strategies) {
    // Fresh database per strategy: identical contents (same seed), no
    // inherited buffer or cache state.
    std::unique_ptr<ComplexDatabase> db;
    s = BuildDatabase(config.db, &db);
    if (!s.ok()) {
      std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::vector<Query> queries;
    s = GenerateWorkload(config.workload, *db, &queries);
    if (!s.ok()) {
      std::fprintf(stderr, "workload failed: %s\n", s.ToString().c_str());
      return 1;
    }
    if (faults) {
      FaultInjector* fi = db->disk->fault_injector();
      fi->Configure(flags.fault_seed, flags.fault_rate, flags.fault_rate);
      if (!crash_point.empty()) {
        fi->ArmCrash(crash_point, crash_hit);
      }
    }

    PlanCountSnapshot plans_before = PlanCountSnapshot::Take();
    if (concurrent) {
      ConcurrentRunOptions opts;
      opts.num_threads = flags.threads;
      opts.duration_seconds = flags.duration_seconds;
      opts.seed = config.workload.seed;
      ConcurrentRunResult r;
      s = RunConcurrentWorkload(kind, config.options, db.get(), queries, opts,
                                &r);
      if (!s.ok()) {
        if (db->disk->fault_injector()->crashed() && db->wal != nullptr) {
          std::fprintf(stderr, "%s: %s\n", StrategyKindName(kind),
                       s.ToString().c_str());
          RecoveryReport rep;
          Status rs = RecoverDatabase(db.get(), &rep);
          if (!rs.ok()) {
            std::fprintf(stderr, "recovery failed: %s\n",
                         rs.ToString().c_str());
            return 1;
          }
          std::printf(
              "%-16s recovered: %llu txns redone, %llu pages, %llu frees, "
              "%llu frames dropped\n",
              StrategyKindName(kind),
              static_cast<unsigned long long>(rep.wal.txns_redone),
              static_cast<unsigned long long>(rep.wal.pages_redone),
              static_cast<unsigned long long>(rep.wal.frees_redone),
              static_cast<unsigned long long>(rep.frames_dropped));
          continue;
        }
        std::fprintf(stderr, "%s: %s\n", StrategyKindName(kind),
                     s.ToString().c_str());
        if (flags.fault_rate > 0) continue;  // faults were requested
        return 1;
      }
      std::printf("%-16s %10.0f %10.3f %10.3f %10.3f %10.1f %12lld\n",
                  StrategyKindName(kind), r.queries_per_sec,
                  r.latency.p50_us / 1000.0, r.latency.p95_us / 1000.0,
                  r.latency.p99_us / 1000.0, r.avg_io_per_query,
                  static_cast<long long>(r.combined.result_sum));
      attribution.push_back(
          AttributionRow{StrategyKindName(kind), r.combined.io_by_tag});
      if (kind == StrategyKind::kAdaptive) PrintPlanChoices(plans_before);
      continue;
    }

    std::unique_ptr<Strategy> strategy;
    s = MakeStrategy(kind, db.get(), config.options, &strategy);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", StrategyKindName(kind),
                   s.ToString().c_str());
      return 1;
    }
    RunResult r;
    s = RunWorkload(strategy.get(), db.get(), queries, &r);
    if (!s.ok()) {
      if (db->disk->fault_injector()->crashed() && db->wal != nullptr) {
        std::fprintf(stderr, "run crashed: %s\n", s.ToString().c_str());
        RecoveryReport rep;
        Status rs = RecoverDatabase(db.get(), &rep);
        if (!rs.ok()) {
          std::fprintf(stderr, "recovery failed: %s\n", rs.ToString().c_str());
          return 1;
        }
        std::printf(
            "%-16s recovered: %llu txns redone, %llu pages, %llu frees, "
            "%llu frames dropped\n",
            StrategyKindName(kind),
            static_cast<unsigned long long>(rep.wal.txns_redone),
            static_cast<unsigned long long>(rep.wal.pages_redone),
            static_cast<unsigned long long>(rep.wal.frees_redone),
            static_cast<unsigned long long>(rep.frames_dropped));
        continue;
      }
      std::fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
      // A rate fault the user injected is an expected outcome for this
      // strategy's run, not a reason to abandon the rest of the table;
      // every strategy gets a fresh database, so nothing is shared.
      if (flags.fault_rate > 0) continue;
      return 1;
    }
    uint64_t probes = r.cache_stats.hits + r.cache_stats.misses;
    std::printf("%-16s %12.1f %12.1f %12.1f %9.1f%% %7.1f%% %12lld\n",
                StrategyKindName(kind), r.AvgIoPerQuery(), r.AvgRetrieveIo(),
                r.AvgUpdateIo(),
                probes ? 100.0 * r.cache_stats.hits / probes : 0.0,
                100.0 * r.io.seq_fraction(),
                static_cast<long long>(r.result_sum));
    attribution.push_back(AttributionRow{StrategyKindName(kind), r.io_by_tag});
    if (kind == StrategyKind::kAdaptive) PrintPlanChoices(plans_before);
  }

  PrintAttributionTable(attribution);

  if (!flags.metrics_json.empty()) {
    std::ofstream out(flags.metrics_json);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", flags.metrics_json.c_str());
      return 1;
    }
    MetricsRegistry::Global().WriteJson(out);
    out << "\n";
  }
  if (!flags.trace_out.empty()) {
    if (uint64_t dropped = Trace::dropped_events(); dropped > 0) {
      std::fprintf(stderr,
                   "trace: %llu events dropped to ring overwrite\n",
                   static_cast<unsigned long long>(dropped));
    }
    Status ts = Trace::FlushToFile(flags.trace_out);
    if (!ts.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", ts.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
