// Shared helpers for the experiment harnesses in bench/.
//
// Each figure/table binary sweeps parameters, and for every point builds a
// fresh database (same seed => identical data across strategies), generates
// a deterministic query sequence, and measures average I/O per query —
// exactly the paper's methodology (§4).
//
// The gated benches (the ones with a committed BENCH_<bench>.json) also
// share one command line (ParseBenchArgs), one timed closed-loop runner
// (MeasureArms / ClosedLoop) and one result envelope (WriteEnvelope) that
// tools/check_bench_json.py validates; DESIGN.md §18 describes it.
#ifndef OBJREP_BENCH_BENCH_UTIL_H_
#define OBJREP_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "core/strategy.h"
#include "exec/concurrent_runner.h"
#include "obs/io_context.h"
#include "objstore/database.h"
#include "objstore/workload.h"
#include "util/parse_number.h"

namespace objrep {
namespace bench {

/// Builds a fresh database, generates the workload, and runs it under one
/// strategy. Aborts on any Status failure (harness code).
inline RunResult MeasureStrategy(const DatabaseSpec& db_spec,
                                 const WorkloadSpec& wl_spec,
                                 StrategyKind kind,
                                 const StrategyOptions& options = {}) {
  std::unique_ptr<ComplexDatabase> db;
  Status s = BuildDatabase(db_spec, &db);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  std::vector<Query> queries;
  s = GenerateWorkload(wl_spec, *db, &queries);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  std::unique_ptr<Strategy> strategy;
  s = MakeStrategy(kind, db.get(), options, &strategy);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  RunResult result;
  s = RunWorkload(strategy.get(), db.get(), queries, &result);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  return result;
}

/// Query count that keeps per-point work bounded while averaging enough:
/// roughly constant total touched subobjects across NumTop values.
inline uint32_t AutoNumQueries(uint32_t num_top, uint32_t budget = 400) {
  uint32_t n = 1500000u / (num_top * 5u + 500u);
  return std::clamp<uint32_t>(n, 24u, budget);
}

// --- Table printing ---

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void PrintTitle(const std::string& title,
                       const std::string& subtitle = "") {
  PrintRule();
  std::printf("%s\n", title.c_str());
  if (!subtitle.empty()) std::printf("%s\n", subtitle.c_str());
  PrintRule();
}

// --- Command line ---

/// The flags the gated benches share. A bench sets its defaults, then
/// parses; `--json` alone writes BENCH_<bench>.json.
struct BenchArgs {
  bool quick = false;
  double duration = 0;        ///< seconds per measured window
  double quick_duration = 0;  ///< --quick's window unless --duration is given
  uint32_t io_latency_us = 0;
  std::string json_path;      ///< empty: no JSON output
};

/// Which of the common flags a bench takes (a bitmask for ParseBenchArgs).
enum CommonFlag : unsigned {
  kQuickFlag = 1,
  kDurationFlag = 2,
  kIoLatencyFlag = 4,
  kJsonFlag = 8,
};

/// A bench-specific `--name=VALUE` flag; `set` returns false on a bad value.
struct ExtraFlag {
  const char* name;
  std::function<bool(const char* value)> set;
};

inline ExtraFlag U32Flag(const char* name, uint32_t* out) {
  return {name,
          [out](const char* v) { return ParseNumber<uint32_t>(v, out); }};
}

inline ExtraFlag DoubleFlag(const char* name, double* out) {
  return {name, [out](const char* v) { return ParseNumber<double>(v, out); }};
}

/// Parses argv for bench `bench`. `accepts` is a CommonFlag mask. Prints
/// usage and returns false on an unknown flag or a malformed value.
inline bool ParseBenchArgs(int argc, char** argv, const char* bench,
                           unsigned accepts, BenchArgs* args,
                           const std::vector<ExtraFlag>& extras = {}) {
  std::vector<ExtraFlag> flags = extras;
  bool duration_given = false;
  if (accepts & kDurationFlag) {
    flags.push_back(DoubleFlag("--duration", &args->duration));
  }
  if (accepts & kIoLatencyFlag) {
    flags.push_back(U32Flag("--io-latency-us", &args->io_latency_us));
  }
  bool ok = true;
  for (int i = 1; i < argc && ok; ++i) {
    const char* a = argv[i];
    if ((accepts & kQuickFlag) && std::strcmp(a, "--quick") == 0) {
      args->quick = true;
      continue;
    }
    if ((accepts & kJsonFlag) && std::strcmp(a, "--json") == 0) {
      args->json_path = std::string("BENCH_") + bench + ".json";
      continue;
    }
    if ((accepts & kJsonFlag) && std::strncmp(a, "--json=", 7) == 0) {
      args->json_path = a + 7;
      continue;
    }
    ok = false;
    for (const ExtraFlag& f : flags) {
      const size_t n = std::strlen(f.name);
      if (std::strncmp(a, f.name, n) == 0 && a[n] == '=') {
        ok = f.set(a + n + 1);
        if (std::strcmp(f.name, "--duration") == 0) duration_given = true;
        break;
      }
    }
  }
  if (args->quick && !duration_given && args->quick_duration > 0) {
    args->duration = args->quick_duration;
  }
  if ((accepts & kDurationFlag) && args->duration <= 0) ok = false;
  if (ok) return true;
  std::fprintf(stderr, "usage: %s", argv[0]);
  if (accepts & kQuickFlag) std::fprintf(stderr, " [--quick]");
  for (const ExtraFlag& f : flags) std::fprintf(stderr, " [%s=N]", f.name);
  if (accepts & kJsonFlag) std::fprintf(stderr, " [--json[=PATH]]");
  std::fprintf(stderr, "\n");
  return false;
}

// --- Timed closed-loop measurement ---

/// What one timed window did. Latency is per retrieve.
struct Window {
  double seconds = 0;
  uint64_t queries = 0;
  uint64_t retrieves = 0;
  LatencySummary retrieve_latency;
  double avg_io_per_query = -1;  ///< < 0: the window does not count I/O

  double retrieves_per_sec() const {
    return seconds > 0 ? static_cast<double>(retrieves) / seconds : 0.0;
  }
  double queries_per_sec() const {
    return seconds > 0 ? static_cast<double>(queries) / seconds : 0.0;
  }
};

/// Runs one timed window of the given length.
using WindowFn = std::function<Window(double seconds)>;

struct Timing {
  double warmup_seconds = 0;  ///< one unmeasured window of arm 0 first
  double seconds = 1;         ///< each measured window
  int repeats = 1;            ///< measured windows per arm
};

/// Warm-up, then `repeats` rounds that each run every arm once, so a slow
/// host phase hits every arm alike. Returns, per arm, the window with the
/// median retrieve rate (the lower median for an even repeat count).
inline std::vector<Window> MeasureArms(const Timing& t,
                                       const std::vector<WindowFn>& arms) {
  if (t.warmup_seconds > 0) arms[0](t.warmup_seconds);
  std::vector<std::vector<Window>> runs(arms.size());
  for (int r = 0; r < std::max(1, t.repeats); ++r) {
    for (size_t a = 0; a < arms.size(); ++a) {
      runs[a].push_back(arms[a](t.seconds));
    }
  }
  std::vector<Window> out;
  for (std::vector<Window>& w : runs) {
    std::sort(w.begin(), w.end(), [](const Window& x, const Window& y) {
      return x.retrieves_per_sec() < y.retrieves_per_sec();
    });
    out.push_back(w[(w.size() - 1) / 2]);
  }
  return out;
}

inline Window Measure(const Timing& t, const WindowFn& window) {
  return MeasureArms(t, {window})[0];
}

/// One closed-loop operation: `i` counts the calling thread's operations.
/// Returns true for a retrieve (timed into the latency summary).
using OpFn = std::function<bool(uint32_t thread, uint64_t i)>;

/// `threads` closed-loop clients released together by a start barrier,
/// each calling `op` back to back until `seconds` have elapsed.
inline Window ClosedLoop(uint32_t threads, double seconds, const OpFn& op) {
  using Clock = std::chrono::steady_clock;
  std::atomic<bool> go{false}, stop{false};
  std::atomic<uint32_t> ready{0};
  std::vector<uint64_t> ops(threads, 0);
  std::vector<std::vector<double>> lat(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const Clock::time_point t0 = Clock::now();
        if (op(t, i)) {
          lat[t].push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count());
        }
        ++ops[t];
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  const Clock::time_point t0 = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();
  Window out;
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  std::vector<double> all;
  for (uint32_t t = 0; t < threads; ++t) {
    out.queries += ops[t];
    out.retrieves += lat[t].size();
    all.insert(all.end(), lat[t].begin(), lat[t].end());
  }
  out.retrieve_latency = SummarizeLatencies(&all);
  return out;
}

/// A window body that is one timed RunConcurrentWorkload call.
inline WindowFn ConcurrentRunnerWindow(StrategyKind kind, ComplexDatabase* db,
                                       const std::vector<Query>* queries,
                                       uint32_t threads, uint64_t seed) {
  return [=](double seconds) {
    ConcurrentRunOptions options;
    options.num_threads = threads;
    options.seed = seed;
    options.duration_seconds = seconds;
    ConcurrentRunResult r;
    Status s = RunConcurrentWorkload(kind, {}, db, *queries, options, &r);
    OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
    Window w;
    w.seconds = r.wall_seconds;
    w.queries = r.combined.num_queries;
    w.retrieves = r.combined.num_retrieves;
    w.retrieve_latency = r.retrieve_latency;
    w.avg_io_per_query = r.avg_io_per_query;
    return w;
  };
}

// --- Result envelope ---

/// A JSON object built in insertion order; each value is formatted as it
/// is added.
class JsonObject {
 public:
  JsonObject& Num(const char* key, double v, int precision = 2) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return Raw(key, buf);
  }
  JsonObject& Int(const char* key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const char* key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const char* key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  /// `json` must already be serialized JSON.
  JsonObject& Raw(const char* key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + std::string(key) + "\": " + json;
    return *this;
  }
  bool empty() const { return body_.empty(); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// The one result document every gated bench writes:
///   {bench, quick, device{io_latency_us, io_transfer_us}, config{...},
///    points[{sweep coordinates..., measured fields...}], extra{...}}
/// `config` holds the fixed spec; a point's coordinate overrides the
/// config field of the same name. `extra` carries only blocks a gate
/// needs and is omitted when empty.
struct Envelope {
  std::string bench;
  bool quick = false;
  uint32_t io_latency_us = 0;
  uint32_t io_transfer_us = 0;
  JsonObject config;
  std::vector<JsonObject> points;
  JsonObject extra;
};

inline Envelope MakeEnvelope(const char* bench, const BenchArgs& args) {
  Envelope e;
  e.bench = bench;
  e.quick = args.quick;
  e.io_latency_us = args.io_latency_us;
  return e;
}

/// Adds a measurement's timing spec to a config block.
inline JsonObject& AddTiming(JsonObject* config, const Timing& t) {
  return config->Num("duration_seconds", t.seconds, 3)
      .Num("warmup_seconds", t.warmup_seconds, 3)
      .Int("repeats", static_cast<uint64_t>(t.repeats));
}

/// Adds a latency summary: its sample count and percentiles, microseconds.
inline JsonObject& AddLatency(JsonObject* o, const LatencySummary& l) {
  return o->Int("samples", l.count)
      .Num("p50_us", l.p50_us, 0)
      .Num("p99_us", l.p99_us, 0)
      .Num("p999_us", l.p999_us, 0)
      .Num("max_us", l.max_us, 0);
}

/// Adds a window's rates, retrieve latency and I/O per query (each only
/// where measured) to a point.
inline JsonObject& AddWindow(JsonObject* point, const Window& w) {
  point->Num("retrieves_per_sec", w.retrieves_per_sec())
      .Num("queries_per_sec", w.queries_per_sec());
  if (w.retrieve_latency.count > 0) AddLatency(point, w.retrieve_latency);
  if (w.avg_io_per_query >= 0) {
    point->Num("avg_io_per_query", w.avg_io_per_query);
  }
  return *point;
}

/// The database shape a bench fixes, as a config block.
inline std::string SpecJson(const DatabaseSpec& s) {
  return JsonObject()
      .Int("num_parents", s.num_parents)
      .Int("size_unit", s.size_unit)
      .Int("use_factor", s.use_factor)
      .Int("overlap_factor", s.overlap_factor)
      .Int("num_child_rels", s.num_child_rels)
      .Int("buffer_pages", s.buffer_pages)
      .Bool("enable_wal", s.enable_wal)
      .Int("seed", s.seed)
      .str();
}

/// The query stream a bench fixes, as a config block.
inline std::string WorkloadJson(const WorkloadSpec& w) {
  return JsonObject()
      .Int("num_queries", w.num_queries)
      .Int("num_top", w.num_top)
      .Num("pr_update", w.pr_update)
      .Int("update_batch", w.update_batch)
      .Int("seed", w.seed)
      .str();
}

/// Per-tag page counts with zero tags omitted; they sum to the run's I/O.
inline std::string IoByTagJson(const IoTagBreakdown& tags) {
  JsonObject o;
  for (size_t t = 0; t < kNumIoTags; ++t) {
    const uint64_t n = tags.total_for(static_cast<IoTag>(t));
    if (n > 0) o.Int(IoTagName(static_cast<IoTag>(t)), n);
  }
  return o.str();
}

/// Writes `e` to `path`; does nothing when `path` is empty.
inline void WriteEnvelope(const std::string& path, const Envelope& e) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  OBJREP_CHECK_MSG(f != nullptr, "cannot open JSON output path");
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"quick\": %s,\n",
               e.bench.c_str(), e.quick ? "true" : "false");
  std::fprintf(f,
               "  \"device\": {\"io_latency_us\": %u, \"io_transfer_us\": %u},"
               "\n  \"config\": %s,\n  \"points\": [",
               e.io_latency_us, e.io_transfer_us, e.config.str().c_str());
  for (size_t i = 0; i < e.points.size(); ++i) {
    std::fprintf(f, "%s\n    %s", i == 0 ? "" : ",",
                 e.points[i].str().c_str());
  }
  std::fprintf(f, "\n  ]");
  if (!e.extra.empty()) {
    std::fprintf(f, ",\n  \"extra\": %s", e.extra.str().c_str());
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace bench
}  // namespace objrep

#endif  // OBJREP_BENCH_BENCH_UTIL_H_
