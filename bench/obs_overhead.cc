// Observability overhead: served-retrieve throughput with tracing + heat
// tracking on versus everything off (DESIGN.md §16).
//
// K closed-loop client threads drive one ObjService (the same Execute()
// path the network server's workers call) for a timed window, twice per
// repeat: once with the trace ring and the heat map disabled (baseline)
// and once with both enabled (the always-on production posture). The
// request stream is identical — skewed retrieves, so the heat map has a
// real ranking to report — and the database, buffer pool, and strategy
// session pool are shared across both modes, so the only difference is
// the observability hooks themselves. Modes are interleaved and the
// median repeat is reported to keep one noisy scheduler quantum from
// deciding the number.
//
// The committed floor (FLOORS in tools/check_bench_json.py): enabling
// tracing + heat costs at most 5% of retrieve throughput at 8 threads.
// The emitted JSON also carries one PROFILE-flagged request's
// RetrieveProfile (checked for exact per-tag I/O sums) and the heat
// map's post-run snapshot (checked for a non-empty, heat-sorted top-k).
//
//   $ ./build/bench/obs_overhead
//   $ ./build/bench/obs_overhead --quick          (CI smoke)
//   $ ./build/bench/obs_overhead --json           (BENCH_obs_overhead.json)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "net/protocol.h"
#include "net/service.h"
#include "obs/heat_map.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "objstore/database.h"

namespace objrep {
namespace bench {
namespace {

constexpr uint32_t kNumTop = 8;

DatabaseSpec ObsSpec() {
  DatabaseSpec spec;
  // Larger than the buffer pool so retrieves keep doing page I/O (the
  // per-tag counters have something to attribute), zero device latency so
  // the run is CPU-bound — the honest worst case for hook overhead, which
  // a simulated seek would otherwise hide.
  spec.num_parents = 2000;
  spec.size_unit = 5;
  spec.use_factor = 1;
  spec.overlap_factor = 1;
  spec.num_child_rels = 1;
  spec.buffer_pages = 96;
  spec.seed = 211;
  spec.io_latency_us = 0;
  return spec;
}

/// A window of `threads` closed-loop retrieve clients against `service`
/// with observability `on` or off. Parent ranges are skewed (u^2 toward
/// low ids) so the heat map ranks a real hot set.
WindowFn ServiceArm(net::ObjService* service, uint32_t num_parents,
                    uint32_t threads, bool on) {
  return [=](double seconds) {
    Trace::SetEnabled(on);
    HeatMap::Global().SetEnabled(on);
    const uint32_t span = num_parents > kNumTop ? num_parents - kNumTop : 1;
    std::vector<std::mt19937_64> rngs;
    for (uint32_t t = 0; t < threads; ++t) {
      rngs.emplace_back(0x9e3779b97f4a7c15ull +
                        0x100000001b3ull * static_cast<uint64_t>(t + 1));
    }
    return ClosedLoop(threads, seconds, [&](uint32_t t, uint64_t i) {
      const double u =
          std::uniform_real_distribution<double>(0.0, 1.0)(rngs[t]);
      net::Request req;
      req.verb = net::Verb::kRetrieve;
      req.id = i;
      req.lo_parent = static_cast<uint32_t>(u * u * span);
      req.num_top = kNumTop;
      req.attr_index = 0;
      net::Response resp = service->Execute(req);
      OBJREP_CHECK_MSG(resp.status == net::RespStatus::kOk,
                       resp.error.c_str());
      return true;
    });
  };
}

int Run(uint32_t threads, int repeats, const BenchArgs& args) {
  PrintTitle("obs_overhead: served retrieve throughput, tracing+heat "
             "on vs off",
             "closed loop, skewed parents, shared database and sessions");

  DatabaseSpec spec = ObsSpec();
  std::unique_ptr<ComplexDatabase> db;
  Status s = BuildDatabase(spec, &db);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  net::ObjService service(db.get(), StrategyKind::kDfs, StrategyOptions{});

  // Arm 0 (off) also warms the buffer and session pools, untimed. Each
  // repeat runs off then on, and each arm reports its median repeat.
  const Timing timing{std::max(0.1, args.duration * 0.25), args.duration,
                      repeats};
  const std::vector<Window> arms = MeasureArms(
      timing, {ServiceArm(&service, spec.num_parents, threads, false),
               ServiceArm(&service, spec.num_parents, threads, true)});
  const double baseline_rps = arms[0].retrieves_per_sec();
  const double enabled_rps = arms[1].retrieves_per_sec();
  PrintRule();
  std::printf("median baseline %.0f rps, enabled %.0f rps, "
              "overhead %.2f%%\n", baseline_rps, enabled_rps,
              100.0 * (baseline_rps - enabled_rps) / baseline_rps);

  // One PROFILE-flagged request with observability still on: the profile
  // that rides in the JSON is exactly what a client with --profile sees.
  net::Request preq;
  preq.verb = net::Verb::kRetrieve;
  preq.flags = net::kReqFlagProfile;
  preq.lo_parent = 0;
  preq.num_top = kNumTop;
  preq.attr_index = 0;
  net::Response presp = service.Execute(preq);
  OBJREP_CHECK_MSG(presp.status == net::RespStatus::kOk,
                   presp.error.c_str());
  OBJREP_CHECK_MSG(!presp.profile_json.empty(),
                   "PROFILE flag produced no profile");
  const std::string heat_json = HeatMap::Global().ToJson(10);
  OBJREP_CHECK_MSG(HeatMap::Global().touches() > 0,
                   "enabled run recorded no heat touches");
  std::printf("\nprofile: %s\n", presp.profile_json.c_str());
  std::printf("heat:    %s\n", heat_json.c_str());

  Envelope env = MakeEnvelope("obs_overhead", args);
  AddTiming(&env.config, timing)
      .Str("strategy", "DFS")
      .Int("threads", threads)
      .Raw("db", SpecJson(spec))
      .Int("num_top", kNumTop);
  for (size_t a = 0; a < arms.size(); ++a) {
    JsonObject point;
    point.Str("arm", a == 0 ? "off" : "on");
    env.points.push_back(AddWindow(&point, arms[a]));
  }
  env.extra.Raw("profile", presp.profile_json).Raw("heat", heat_json);
  WriteEnvelope(args.json_path, env);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace objrep

int main(int argc, char** argv) {
  uint32_t threads = 8;
  uint32_t repeats = 3;
  objrep::bench::BenchArgs args;
  args.duration = 1.5;
  // Short windows are noisier; --quick keeps 3 repeats so the median can
  // still throw away one bad scheduler quantum.
  args.quick_duration = 0.4;
  if (!objrep::bench::ParseBenchArgs(
          argc, argv, "obs_overhead",
          objrep::bench::kQuickFlag | objrep::bench::kDurationFlag |
              objrep::bench::kJsonFlag,
          &args,
          {objrep::bench::U32Flag("--threads", &threads),
           objrep::bench::U32Flag("--repeats", &repeats)}) ||
      threads < 1 || repeats < 1) {
    return 2;
  }
  return objrep::bench::Run(threads, static_cast<int>(repeats), args);
}
