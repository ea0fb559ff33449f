// net_load — closed-loop load driver for the object server (DESIGN.md
// §13), the wire-level analog of objrep_driver's --threads mode.
//
//   $ ./build/tools/net_load --port=4700 --clients=64 --duration=5
//   $ ./build/tools/net_load --port=4700 --clients=16 --pr-update=0.1
//         --strategy=adaptive --shutdown   (one command line)
//   $ ./build/tools/net_load --endpoints=127.0.0.1:4700,127.0.0.1:4701
//         --clients=32        (round-robin across several servers)
//
// Each client thread owns one connection and issues a RETRIEVE/UPDATE mix
// (PINGs when --pr-ping is set), recording per-request latency. The
// workload shape is bootstrapped from the server's STATS response — the
// "db" section carries |ParentRel|, the child relation ids, and the keys
// per relation — so the driver needs no copy of the server's config. The
// exit code is 0 only if every client connected and at least one request
// succeeded, which is what the CI smoke job asserts.
//
// --endpoints takes a comma-separated list; clients are assigned
// round-robin and the summary adds a per-endpoint accounting line
// (clients, connected, ok/busy/rejected/transport splits), so an
// unreachable or sick member of a server group is visible at a glance
// rather than averaged away. All endpoints must serve the same database
// shape (the bootstrap probes the first one).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/experiment_config.h"
#include "exec/concurrent_runner.h"
#include "net/client.h"
#include "net/protocol.h"
#include "obs/trace.h"
#include "util/parse_number.h"

using namespace objrep;

namespace {

/// One server address; clients are assigned endpoints round-robin.
struct Endpoint {
  std::string host;
  uint16_t port = 0;
};

struct LoadFlags {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::vector<Endpoint> endpoints;  // --endpoints=h:p,h:p (overrides host/port)
  uint32_t clients = 8;
  double duration_seconds = 5.0;
  double pr_update = 0.0;
  double pr_ping = 0.0;
  uint32_t num_top = 5;
  uint32_t update_batch = 5;
  uint8_t attr_index = 0;
  uint8_t strategy = net::kDefaultStrategyByte;
  uint64_t seed = 42;
  bool shutdown = false;   // send SHUTDOWN when done
  std::string json_out;    // --json=FILE: machine-readable summary
  std::string trace_out;   // --trace-out=FILE: client-side span file,
                           // mergeable with the server's via trace ids
};

/// Schema facts parsed from the server's STATS "db" section.
struct DbShape {
  uint32_t num_parents = 0;
  uint32_t children_per_rel = 0;
  std::vector<uint32_t> child_rels;
};

/// Minimal extraction from the server's well-formed JSON: the value after
/// `"key":`. Good enough for a tool talking to one known producer.
bool FindU64(const std::string& json, const char* key, uint64_t* out) {
  std::string needle = std::string("\"") + key + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

bool ParseDbShape(const std::string& json, DbShape* out) {
  uint64_t v = 0;
  if (!FindU64(json, "num_parents", &v)) return false;
  out->num_parents = static_cast<uint32_t>(v);
  if (!FindU64(json, "children_per_rel", &v)) return false;
  out->children_per_rel = static_cast<uint32_t>(v);
  size_t pos = json.find("\"child_rels\":[");
  if (pos == std::string::npos) return false;
  const char* p = json.c_str() + pos + std::strlen("\"child_rels\":[");
  while (*p != ']' && *p != '\0') {
    char* end = nullptr;
    out->child_rels.push_back(
        static_cast<uint32_t>(std::strtoul(p, &end, 10)));
    if (end == p) return false;
    p = end;
    if (*p == ',') ++p;
  }
  return !out->child_rels.empty() && out->num_parents > 0 &&
         out->children_per_rel > 0;
}

struct ClientResult {
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t rejected = 0;  // SHUTTING_DOWN / BAD_REQUEST / ERROR
  uint64_t transport_errors = 0;
  std::vector<double> latencies_us;  // OK responses only
  bool connected = false;
};

void ClientLoop(const LoadFlags& flags, const Endpoint& ep,
                const DbShape& shape, uint64_t seed, std::atomic<bool>* stop,
                ClientResult* out) {
  net::ObjClient client;
  if (!client.Connect(ep.host, ep.port).ok()) return;
  out->connected = true;

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const uint32_t max_lo =
      shape.num_parents > flags.num_top ? shape.num_parents - flags.num_top
                                        : 0;
  std::uniform_int_distribution<uint32_t> lo_dist(0, max_lo);
  std::uniform_int_distribution<uint32_t> key_dist(
      0, shape.children_per_rel - 1);
  std::uniform_int_distribution<size_t> rel_dist(0,
                                                 shape.child_rels.size() - 1);

  while (!stop->load(std::memory_order_relaxed)) {
    net::Request req;
    req.strategy = flags.strategy;
    double c = coin(rng);
    if (c < flags.pr_ping) {
      req.verb = net::Verb::kPing;
    } else if (c < flags.pr_ping + flags.pr_update) {
      req.verb = net::Verb::kUpdate;
      req.new_ret1 = static_cast<int32_t>(rng() & 0x7FFF);
      for (uint32_t i = 0; i < flags.update_batch; ++i) {
        req.update_targets.push_back(
            Oid{shape.child_rels[rel_dist(rng)], key_dist(rng)});
      }
    } else {
      req.verb = net::Verb::kRetrieve;
      req.lo_parent = lo_dist(rng);
      req.num_top = std::min(flags.num_top, shape.num_parents);
      req.attr_index = flags.attr_index;
    }

    auto t0 = std::chrono::steady_clock::now();
    net::Response resp;
    Status s = client.Call(std::move(req), &resp);
    if (!s.ok()) {
      out->transport_errors++;
      return;  // Call() closed the connection; this client is done
    }
    if (resp.status == net::RespStatus::kOk) {
      out->ok++;
      out->latencies_us.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    } else if (resp.status == net::RespStatus::kServerBusy) {
      out->busy++;
    } else {
      out->rejected++;
    }
  }
}

bool ParseFlag(const char* arg, const char* name, const char** value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

/// "host:port,host:port,..." — every element needs both parts and a
/// nonzero port.
bool ParseEndpoints(const char* v, std::vector<Endpoint>* out) {
  std::string s(v);
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    std::string item = s.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? s.size() + 1 : comma + 1;
    size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0) return false;
    Endpoint ep;
    ep.host = item.substr(0, colon);
    if (!ParseNumber<uint16_t>(std::string_view(item).substr(colon + 1),
                               &ep.port) ||
        ep.port == 0) {
      return false;
    }
    out->push_back(std::move(ep));
  }
  return !out->empty();
}

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --port=N [--host=ADDR] [--clients=N]\n"
               "          [--endpoints=HOST:PORT,HOST:PORT,...]\n"
               "          [--duration=S] [--pr-update=P] [--pr-ping=P]\n"
               "          [--num-top=K] [--update-batch=B] [--attr=I]\n"
               "          [--strategy=NAME] [--seed=N] [--shutdown]\n"
               "--endpoints spreads clients round-robin over several\n"
               "servers (overrides --host/--port) and reports per-endpoint\n"
               "connection accounting\n"
               "--shutdown sends the SHUTDOWN verb after the run (every\n"
               "server drains and exits)\n"
               "--json=FILE writes a machine-readable summary with overall\n"
               "and per-endpoint latency percentiles (p50/p99/p999/max)\n"
               "--trace-out=FILE records client_call spans; merge with the\n"
               "server's trace via tools/trace_summary.py (spans stitch by\n"
               "trace id)\n",
               prog);
  return 2;
}

/// One endpoint's (or the whole run's) accounting + latency summary.
struct EndpointSummary {
  uint32_t clients = 0;
  uint32_t connected = 0;
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t rejected = 0;
  uint64_t transport_errors = 0;
  uint64_t p50 = 0, p99 = 0, p999 = 0, max = 0;

  void WriteJson(std::ofstream& out) const {
    out << "\"clients\":" << clients << ",\"connected\":" << connected
        << ",\"ok\":" << ok << ",\"busy\":" << busy
        << ",\"rejected\":" << rejected
        << ",\"transport_errors\":" << transport_errors
        << ",\"p50_us\":" << p50 << ",\"p99_us\":" << p99
        << ",\"p999_us\":" << p999 << ",\"max_us\":" << max;
  }
};

EndpointSummary Summarize(const std::vector<ClientResult>& results,
                          size_t first, size_t stride) {
  EndpointSummary s;
  std::vector<double> lat;
  for (size_t i = first; i < results.size(); i += stride) {
    ++s.clients;
    if (results[i].connected) ++s.connected;
    s.ok += results[i].ok;
    s.busy += results[i].busy;
    s.rejected += results[i].rejected;
    s.transport_errors += results[i].transport_errors;
    lat.insert(lat.end(), results[i].latencies_us.begin(),
               results[i].latencies_us.end());
  }
  const LatencySummary l = SummarizeLatencies(&lat);
  s.p50 = static_cast<uint64_t>(l.p50_us);
  s.p99 = static_cast<uint64_t>(l.p99_us);
  s.p999 = static_cast<uint64_t>(l.p999_us);
  s.max = static_cast<uint64_t>(l.max_us);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  LoadFlags flags;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (ParseFlag(argv[i], "--host", &v)) {
      flags.host = v;
    } else if (ParseFlag(argv[i], "--port", &v)) {
      if (!ParseNumber<uint16_t>(v, &flags.port)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--clients", &v)) {
      if (!ParseNumber<uint32_t>(v, &flags.clients)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--duration", &v)) {
      if (!ParseNumber<double>(v, &flags.duration_seconds)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--pr-update", &v)) {
      if (!ParseNumber<double>(v, &flags.pr_update)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--pr-ping", &v)) {
      if (!ParseNumber<double>(v, &flags.pr_ping)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--num-top", &v)) {
      if (!ParseNumber<uint32_t>(v, &flags.num_top)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--update-batch", &v)) {
      if (!ParseNumber<uint32_t>(v, &flags.update_batch)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--attr", &v)) {
      if (!ParseNumber<uint8_t>(v, &flags.attr_index)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--strategy", &v)) {
      StrategyKind kind;
      if (!ParseStrategyName(v, &kind).ok()) return Usage(argv[0]);
      flags.strategy = static_cast<uint8_t>(kind);
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      if (!ParseNumber<uint64_t>(v, &flags.seed)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--endpoints", &v)) {
      flags.endpoints.clear();
      if (!ParseEndpoints(v, &flags.endpoints)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--json", &v)) {
      flags.json_out = v;
    } else if (ParseFlag(argv[i], "--trace-out", &v)) {
      flags.trace_out = v;
    } else if (std::strcmp(argv[i], "--shutdown") == 0) {
      flags.shutdown = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!flags.trace_out.empty()) Trace::SetEnabled(true);
  if (flags.endpoints.empty() && flags.port != 0) {
    flags.endpoints.push_back(Endpoint{flags.host, flags.port});
  }
  if (flags.endpoints.empty() || flags.clients == 0 ||
      flags.num_top == 0 || flags.update_batch == 0 ||
      flags.attr_index > 2 || flags.duration_seconds < 0 ||
      flags.pr_update < 0 || flags.pr_ping < 0 ||
      flags.pr_update + flags.pr_ping > 1.0) {
    return Usage(argv[0]);
  }

  // Bootstrap the workload shape from the first server; the group is
  // assumed homogeneous (same config on every endpoint).
  DbShape shape;
  {
    net::ObjClient probe;
    Status s = probe.Connect(flags.endpoints[0].host,
                             flags.endpoints[0].port);
    if (!s.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::string stats;
    s = probe.Stats(&stats);
    if (!s.ok() || !ParseDbShape(stats, &shape)) {
      std::fprintf(stderr, "STATS bootstrap failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  if (flags.num_top > shape.num_parents) flags.num_top = shape.num_parents;

  std::atomic<bool> stop{false};
  std::vector<ClientResult> results(flags.clients);
  std::vector<std::thread> threads;
  threads.reserve(flags.clients);
  auto t0 = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < flags.clients; ++i) {
    const Endpoint& ep = flags.endpoints[i % flags.endpoints.size()];
    threads.emplace_back(ClientLoop, std::cref(flags), std::cref(ep),
                         std::cref(shape), flags.seed + i, &stop,
                         &results[i]);
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(flags.duration_seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const EndpointSummary total = Summarize(results, 0, 1);
  std::printf(
      "clients=%u duration=%.1fs ok=%llu busy=%llu rejected=%llu "
      "transport_errors=%llu\n",
      flags.clients, elapsed, static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.busy),
      static_cast<unsigned long long>(total.rejected),
      static_cast<unsigned long long>(total.transport_errors));
  std::printf(
      "throughput=%.0f req/s  p50=%lluus p99=%lluus p999=%lluus max=%lluus\n",
      elapsed > 0 ? static_cast<double>(total.ok) / elapsed : 0.0,
      static_cast<unsigned long long>(total.p50),
      static_cast<unsigned long long>(total.p99),
      static_cast<unsigned long long>(total.p999),
      static_cast<unsigned long long>(total.max));

  // Per-endpoint accounting: with several servers, an unreachable or sick
  // member must not hide inside the aggregate.
  if (flags.endpoints.size() > 1) {
    for (size_t e = 0; e < flags.endpoints.size(); ++e) {
      const EndpointSummary es =
          Summarize(results, e, flags.endpoints.size());
      std::printf(
          "endpoint %s:%u clients=%u connected=%u ok=%llu busy=%llu "
          "rejected=%llu transport_errors=%llu\n",
          flags.endpoints[e].host.c_str(), flags.endpoints[e].port,
          es.clients, es.connected, static_cast<unsigned long long>(es.ok),
          static_cast<unsigned long long>(es.busy),
          static_cast<unsigned long long>(es.rejected),
          static_cast<unsigned long long>(es.transport_errors));
    }
  }

  if (!flags.json_out.empty()) {
    std::ofstream out(flags.json_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", flags.json_out.c_str());
      return 1;
    }
    out << "{\"bench\":\"net_load\",\"duration_s\":" << elapsed
        << ",\"throughput_rps\":"
        << (elapsed > 0 ? static_cast<double>(total.ok) / elapsed : 0.0)
        << ",\"overall\":{";
    total.WriteJson(out);
    out << "},\"endpoints\":[";
    for (size_t e = 0; e < flags.endpoints.size(); ++e) {
      if (e > 0) out << ",";
      out << "{\"host\":\"" << flags.endpoints[e].host
          << "\",\"port\":" << flags.endpoints[e].port << ",";
      Summarize(results, e, flags.endpoints.size()).WriteJson(out);
      out << "}";
    }
    out << "]}\n";
  }

  if (flags.shutdown) {
    for (const Endpoint& ep : flags.endpoints) {
      net::ObjClient c;
      if (c.Connect(ep.host, ep.port).ok()) {
        Status s = c.Shutdown();
        std::printf("shutdown %s:%u: %s\n", ep.host.c_str(), ep.port,
                    s.ok() ? "ok" : s.ToString().c_str());
      }
    }
  }
  if (!flags.trace_out.empty()) {
    Status ts = Trace::FlushToFile(flags.trace_out);
    if (!ts.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", ts.ToString().c_str());
      return 1;
    }
  }
  return total.connected == total.clients && total.ok > 0 ? 0 : 1;
}
