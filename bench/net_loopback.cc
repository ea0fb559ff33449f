// net_loopback — wire-level capacity bench for the object server
// (DESIGN.md §13): can one ObjServer multiplex >= 10k concurrent loopback
// connections, and does admission control keep latency bounded when the
// in-flight budget is slashed mid-run?
//
//   $ ./build/bench/net_loopback --json         # full: 10k connections
//   $ ./build/bench/net_loopback --quick        # CI smoke: 512 connections
//
// The client side is NOT thread-per-connection (10k threads would bench
// the scheduler, not the server) and not even same-process: the per-process
// fd limit must cover the server's 10k sockets, so it cannot also hold the
// client ends. Each client loop is a forked child process with its own fd
// table, driving ~1k closed-loop connections off one epoll — every
// connection keeps exactly one request outstanding, so offered load is
// self-limiting and the measured latencies are honest queueing delay.
// Phase control lives in a shared anonymous mapping; children stream their
// latency samples back over pipes. Two phases against one server:
//
//   steady   — budget provisioned above the connection count, so nothing
//              is shed; per-verb p50/p99/p999 recorded.
//   overload — set_max_inflight() drops the budget to a handful while
//              every connection keeps firing; the server must answer the
//              excess with SERVER_BUSY (cheap, loop-side) and the few
//              admitted requests must stay fast — shedding, not collapse.
//
// --json writes BENCH_net_loopback.json: one point per verb with its
// steady-phase latency, and the phase counters and overload latency under
// `extra`. tools/check_bench_json.py validates it and enforces the
// capacity, shedding and overload-latency rows of its FLOORS table.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "objstore/database.h"
#include "util/macros.h"

using namespace objrep;
using namespace objrep::bench;

namespace {

struct BenchFlags {
  // Phase sizes come from main: the full run's or --quick's, unless given.
  uint32_t connections = 0;
  double steady_seconds = 0;
  double overload_seconds = 0;
  uint32_t client_procs = 8;
  uint32_t server_workers = 8;
  uint32_t overload_inflight = 4;
  uint32_t num_parents = 2000;
  // Update-target space, filled from the built database before the
  // children fork (child relation id + keys per relation).
  uint32_t update_rel = 0;
  uint32_t update_keys = 1;
};

// Phases double as indices into the per-phase accumulators.
enum Phase : int { kWait = -1, kSteady = 0, kOverload = 1, kDone = 2 };

/// Parent/children rendezvous, in a MAP_SHARED anonymous page: the parent
/// flips the phase, every child polls it.
struct SharedCtl {
  std::atomic<uint32_t> connected;
  std::atomic<int> phase;
};
SharedCtl* g_ctl = nullptr;

constexpr int kVerbSlots = 3;  // RETRIEVE, UPDATE, PING
const char* kVerbNames[kVerbSlots] = {"RETRIEVE", "UPDATE", "PING"};

struct Conn {
  int fd = -1;
  net::FrameDecoder decoder;
  std::string out;      // encoded request frame being sent
  size_t out_off = 0;
  int verb_slot = 0;
  int phase_at_send = kSteady;
  std::chrono::steady_clock::time_point send_ts;
  uint64_t next_id = 1;
  std::mt19937_64 rng;
};

/// One child's share of the measurement: latencies in microseconds, split
/// by (phase, verb); SERVER_BUSY counts by phase-at-arrival (the busy
/// verdict is made server-side at receipt — a request sent late in steady
/// can be rejected after the budget drop, and that rejection belongs to
/// the overload phase).
struct LoopResult {
  std::vector<uint32_t> lat[2][kVerbSlots];
  uint64_t busy[2] = {0, 0};
  uint64_t other_errors = 0;  // BAD_REQUEST etc — any is a bench bug
  uint64_t dead_conns = 0;
};

void BuildRequest(const BenchFlags& flags, Conn* c) {
  int phase = g_ctl->phase.load(std::memory_order_relaxed);
  net::Request req;
  req.id = c->next_id++;
  double coin = std::uniform_real_distribution<double>(0, 1)(c->rng);
  if (coin < 0.10) {
    c->verb_slot = 2;
    req.verb = net::Verb::kPing;
  } else if (coin < 0.20 && phase != kOverload) {
    // Overload measures RETRIEVE shedding only: updates take X table
    // locks and would serialize the admitted trickle behind each other.
    c->verb_slot = 1;
    req.verb = net::Verb::kUpdate;
    req.new_ret1 = static_cast<int32_t>(c->rng() & 0x7FFF);
    req.update_targets.push_back(
        Oid{flags.update_rel,
            static_cast<uint32_t>(c->rng() % flags.update_keys)});
  } else {
    c->verb_slot = 0;
    req.verb = net::Verb::kRetrieve;
    req.lo_parent = static_cast<uint32_t>(c->rng() % (flags.num_parents - 4));
    req.num_top = 4;
    req.attr_index = 0;
  }
  c->out = net::EncodeFrame(net::EncodeRequest(req));
  c->out_off = 0;
  c->phase_at_send = phase < kSteady ? kSteady : phase;
  c->send_ts = std::chrono::steady_clock::now();
}

/// Sends as much of c->out as the socket accepts. Returns false on a dead
/// connection; *want_out says whether EPOLLOUT must stay armed.
bool PumpSend(Conn* c, bool* want_out) {
  while (c->out_off < c->out.size()) {
    ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                       c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      *want_out = true;
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  *want_out = false;
  return true;
}

void RunClientLoop(const BenchFlags& flags, uint16_t port, uint32_t num_conns,
                   uint64_t seed, LoopResult* result) {
  int ep = ::epoll_create1(0);
  OBJREP_CHECK(ep >= 0);
  std::vector<Conn> conns(num_conns);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (uint32_t i = 0; i < num_conns; ++i) {
    Conn& c = conns[i];
    c.rng.seed(seed + i);
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    OBJREP_CHECK_MSG(c.fd >= 0, "socket() failed — fd limit too low?");
    OBJREP_CHECK_MSG(::connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                               sizeof(addr)) == 0,
                     "connect() failed");
    int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    OBJREP_CHECK(::fcntl(c.fd, F_SETFL, O_NONBLOCK) == 0);
    epoll_event ev{};
    ev.data.u32 = i;
    ev.events = EPOLLIN;
    OBJREP_CHECK(::epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev) == 0);
    g_ctl->connected.fetch_add(1);
  }
  while (g_ctl->phase.load() == kWait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto rearm = [&](uint32_t idx, bool want_out) {
    epoll_event ev{};
    ev.data.u32 = idx;
    ev.events = EPOLLIN | (want_out ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    OBJREP_CHECK(::epoll_ctl(ep, EPOLL_CTL_MOD, conns[idx].fd, &ev) == 0);
  };
  auto kill = [&](uint32_t idx) {
    ::epoll_ctl(ep, EPOLL_CTL_DEL, conns[idx].fd, nullptr);
    ::close(conns[idx].fd);
    conns[idx].fd = -1;
    result->dead_conns++;
  };

  // Fire the first request on every connection.
  for (uint32_t i = 0; i < num_conns; ++i) {
    BuildRequest(flags, &conns[i]);
    bool want_out = false;
    if (!PumpSend(&conns[i], &want_out)) {
      kill(i);
      continue;
    }
    if (want_out) rearm(i, true);
  }

  std::vector<epoll_event> events(512);
  std::vector<char> buf(64 * 1024);
  while (g_ctl->phase.load(std::memory_order_relaxed) != kDone) {
    int n = ::epoll_wait(ep, events.data(), static_cast<int>(events.size()),
                         50);
    for (int e = 0; e < n; ++e) {
      uint32_t idx = events[e].data.u32;
      Conn& c = conns[idx];
      if (c.fd < 0) continue;
      if (events[e].events & (EPOLLERR | EPOLLHUP)) {
        kill(idx);
        continue;
      }
      if (events[e].events & EPOLLOUT) {
        bool want_out = false;
        if (!PumpSend(&c, &want_out)) {
          kill(idx);
          continue;
        }
        if (!want_out) rearm(idx, false);
      }
      if (!(events[e].events & EPOLLIN)) continue;
      ssize_t r = ::recv(c.fd, buf.data(), buf.size(), 0);
      if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
        kill(idx);
        continue;
      }
      if (r < 0) continue;
      c.decoder.Feed(buf.data(), static_cast<size_t>(r));
      bool advanced = false;
      for (;;) {
        std::string payload;
        bool ready = false;
        if (!c.decoder.Next(&payload, &ready).ok()) {
          kill(idx);
          break;
        }
        if (!ready) break;
        net::Response resp;
        OBJREP_CHECK(net::DecodeResponse(payload, &resp).ok());
        uint64_t us = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - c.send_ts)
                .count());
        int now_phase = g_ctl->phase.load(std::memory_order_relaxed);
        if (resp.status == net::RespStatus::kOk) {
          if (c.phase_at_send < kDone) {
            result->lat[c.phase_at_send][c.verb_slot].push_back(
                static_cast<uint32_t>(std::min<uint64_t>(us, UINT32_MAX)));
          }
        } else if (resp.status == net::RespStatus::kServerBusy) {
          if (now_phase == kSteady || now_phase == kOverload) {
            result->busy[now_phase]++;
          }
        } else {
          result->other_errors++;
        }
        // Closed loop: the response IS the permission to send again.
        if (now_phase == kDone) break;
        BuildRequest(flags, &c);
        advanced = true;
      }
      if (c.fd < 0) continue;
      if (advanced) {
        bool want_out = false;
        if (!PumpSend(&c, &want_out)) {
          kill(idx);
          continue;
        }
        if (want_out) rearm(idx, true);
      }
    }
  }
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  ::close(ep);
}

void WriteFull(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = ::write(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    OBJREP_CHECK_MSG(n > 0, "result pipe write failed");
    p += n;
    len -= static_cast<size_t>(n);
  }
}

bool ReadFull(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    ssize_t n = ::read(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

/// Child-side result marshalling: fixed counters, then (count, samples)
/// per (phase, verb). The parent reads the mirror image.
void SendResult(int fd, const LoopResult& r) {
  uint64_t head[4] = {r.busy[0], r.busy[1], r.other_errors, r.dead_conns};
  WriteFull(fd, head, sizeof(head));
  for (int ph = 0; ph < 2; ++ph) {
    for (int vb = 0; vb < kVerbSlots; ++vb) {
      uint64_t count = r.lat[ph][vb].size();
      WriteFull(fd, &count, sizeof(count));
      if (count > 0) {
        WriteFull(fd, r.lat[ph][vb].data(), count * sizeof(uint32_t));
      }
    }
  }
}

bool RecvResult(int fd, LoopResult* r) {
  uint64_t head[4];
  if (!ReadFull(fd, head, sizeof(head))) return false;
  r->busy[0] = head[0];
  r->busy[1] = head[1];
  r->other_errors = head[2];
  r->dead_conns = head[3];
  for (int ph = 0; ph < 2; ++ph) {
    for (int vb = 0; vb < kVerbSlots; ++vb) {
      uint64_t count = 0;
      if (!ReadFull(fd, &count, sizeof(count))) return false;
      r->lat[ph][vb].resize(count);
      if (count > 0 &&
          !ReadFull(fd, r->lat[ph][vb].data(), count * sizeof(uint32_t))) {
        return false;
      }
    }
  }
  return true;
}

/// The server process holds one fd per connection (the clients' ends live
/// in the forked children): raise RLIMIT_NOFILE best-effort, then scale
/// the connection count to what the limit affords.
void FitFdBudget(BenchFlags* flags) {
  rlimit lim{};
  OBJREP_CHECK(getrlimit(RLIMIT_NOFILE, &lim) == 0);
  rlim_t needed = static_cast<rlim_t>(flags->connections) + 1024;
  if (lim.rlim_cur < needed) {
    rlimit want{needed, std::max<rlim_t>(needed, lim.rlim_max)};
    if (setrlimit(RLIMIT_NOFILE, &want) != 0) {
      want = {lim.rlim_max, lim.rlim_max};
      setrlimit(RLIMIT_NOFILE, &want);
      OBJREP_CHECK(getrlimit(RLIMIT_NOFILE, &lim) == 0);
      if (lim.rlim_cur < needed) {
        uint32_t fit = static_cast<uint32_t>(lim.rlim_cur - 1024);
        std::fprintf(stderr,
                     "net_loopback: fd limit %llu caps the bench at %u "
                     "connections (wanted %u)\n",
                     static_cast<unsigned long long>(lim.rlim_cur), fit,
                     flags->connections);
        flags->connections = fit;
      }
    }
  }
}

LatencySummary Summarize(const std::vector<uint32_t>& lat_us) {
  std::vector<double> v(lat_us.begin(), lat_us.end());
  return SummarizeLatencies(&v);
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags;
  BenchArgs args;
  // 0: the full run's value, or --quick's.
  uint32_t connections = 0;
  double steady = 0, overload = 0;
  if (!ParseBenchArgs(argc, argv, "net_loopback", kQuickFlag | kJsonFlag,
                      &args,
                      {U32Flag("--connections", &connections),
                       U32Flag("--procs", &flags.client_procs),
                       U32Flag("--workers", &flags.server_workers),
                       DoubleFlag("--steady", &steady),
                       DoubleFlag("--overload", &overload),
                       U32Flag("--overload-inflight",
                               &flags.overload_inflight)}) ||
      flags.client_procs == 0 || flags.server_workers == 0 ||
      flags.overload_inflight == 0) {
    return 2;
  }
  flags.connections = connections ? connections : args.quick ? 512 : 10000;
  flags.steady_seconds = steady > 0 ? steady : args.quick ? 2.0 : 5.0;
  flags.overload_seconds = overload > 0 ? overload : args.quick ? 1.0 : 2.0;
  FitFdBudget(&flags);

  g_ctl = static_cast<SharedCtl*>(
      ::mmap(nullptr, sizeof(SharedCtl), PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_ANONYMOUS, -1, 0));
  OBJREP_CHECK(g_ctl != MAP_FAILED);
  new (g_ctl) SharedCtl{};
  g_ctl->phase.store(kWait);

  DatabaseSpec spec;
  spec.num_parents = flags.num_parents;
  spec.size_unit = 5;
  spec.use_factor = 5;
  spec.build_cache = true;
  spec.build_cluster = true;
  spec.size_cache = 200;
  spec.cache_buckets = 64;
  spec.seed = 42;
  std::unique_ptr<ComplexDatabase> db;
  Status s = BuildDatabase(spec, &db);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  flags.update_rel = db->child_rels[0]->rel_id();
  flags.update_keys = static_cast<uint32_t>(db->child_rows[0].size());

  net::ServerConfig sc;
  sc.num_workers = flags.server_workers;
  // Steady phase must never shed: budget above the worst-case offered
  // load (every connection has exactly one request outstanding).
  sc.max_inflight = flags.connections + 64;
  sc.max_conn_inflight = 8;
  sc.default_strategy = StrategyKind::kDfsCache;
  net::ObjServer server(db.get(), sc);
  s = server.Start();
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  std::printf(
      "net_loopback: %u connections x %u client procs, %u workers, port %u\n",
      flags.connections, flags.client_procs, flags.server_workers,
      server.port());
  std::fflush(nullptr);  // nothing buffered crosses the forks twice

  uint32_t base = flags.connections / flags.client_procs;
  uint32_t extra = flags.connections % flags.client_procs;
  std::vector<pid_t> kids;
  std::vector<int> pipes;
  for (uint32_t t = 0; t < flags.client_procs; ++t) {
    uint32_t share = base + (t < extra ? 1 : 0);
    int pfd[2];
    OBJREP_CHECK(::pipe(pfd) == 0);
    pid_t pid = ::fork();
    OBJREP_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      ::close(pfd[0]);
      for (int other : pipes) ::close(other);
      LoopResult result;
      RunClientLoop(flags, server.port(), share, 1000 + 100000ULL * t,
                    &result);
      SendResult(pfd[1], result);
      ::close(pfd[1]);
      ::_exit(0);  // skip parent-inherited atexit/stdio teardown
    }
    ::close(pfd[1]);
    kids.push_back(pid);
    pipes.push_back(pfd[0]);
  }

  while (g_ctl->connected.load() < flags.connections) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::printf("net_loopback: all %u connected, steady phase %.1fs\n",
              g_ctl->connected.load(), flags.steady_seconds);

  auto t0 = std::chrono::steady_clock::now();
  g_ctl->phase.store(kSteady);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(flags.steady_seconds));
  double steady_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("net_loopback: overload phase %.1fs (budget -> %u)\n",
              flags.overload_seconds, flags.overload_inflight);
  server.set_max_inflight(flags.overload_inflight);
  auto t1 = std::chrono::steady_clock::now();
  g_ctl->phase.store(kOverload);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(flags.overload_seconds));
  double overload_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();

  // Snapshot before the children tear down: abrupt client closes leave
  // half-sent frames behind, which would show up as teardown noise in
  // bad_frames/responses.
  net::ObjServer::Stats st = server.stats();
  g_ctl->phase.store(kDone);

  // Merge the children's accumulators.
  std::vector<uint32_t> lat[2][kVerbSlots];
  uint64_t busy[2] = {0, 0};
  uint64_t other_errors = 0, dead = 0;
  for (size_t i = 0; i < kids.size(); ++i) {
    LoopResult r;
    OBJREP_CHECK_MSG(RecvResult(pipes[i], &r),
                     "client process died before reporting");
    ::close(pipes[i]);
    int wstatus = 0;
    OBJREP_CHECK(::waitpid(kids[i], &wstatus, 0) == kids[i]);
    OBJREP_CHECK_MSG(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0,
                     "client process exited abnormally");
    for (int ph = 0; ph < 2; ++ph) {
      busy[ph] += r.busy[ph];
      for (int vb = 0; vb < kVerbSlots; ++vb) {
        lat[ph][vb].insert(lat[ph][vb].end(), r.lat[ph][vb].begin(),
                           r.lat[ph][vb].end());
      }
    }
    other_errors += r.other_errors;
    dead += r.dead_conns;
  }
  server.Stop();

  LatencySummary steady_lat[kVerbSlots];
  uint64_t steady_ok = 0;
  for (int vb = 0; vb < kVerbSlots; ++vb) {
    steady_lat[vb] = Summarize(lat[kSteady][vb]);
    steady_ok += steady_lat[vb].count;
  }
  // "Admitted" under overload is RETRIEVE alone: PING bypasses admission
  // and stays cheap, so folding it in would flatter the p99.
  const LatencySummary admitted = Summarize(lat[kOverload][0]);

  OBJREP_CHECK_MSG(dead == 0, "connections died during the run");
  OBJREP_CHECK_MSG(other_errors == 0, "unexpected error responses");
  OBJREP_CHECK_MSG(steady_ok > 0, "steady phase produced no responses");
  OBJREP_CHECK_MSG(busy[kSteady] == 0,
                   "steady phase shed load despite provisioned budget");
  OBJREP_CHECK_MSG(busy[kOverload] > 0,
                   "overload phase never answered SERVER_BUSY");
  OBJREP_CHECK_MSG(admitted.count > 0,
                   "overload phase admitted no requests at all");

  Envelope env = MakeEnvelope("net_loopback", args);
  env.config.Int("connections", flags.connections)
      .Int("client_procs", flags.client_procs)
      .Int("server_workers", flags.server_workers)
      .Num("steady_seconds", flags.steady_seconds, 3)
      .Num("overload_seconds", flags.overload_seconds, 3)
      .Str("strategy", StrategyKindName(sc.default_strategy))
      .Raw("db", SpecJson(spec));
  for (int vb = 0; vb < kVerbSlots; ++vb) {
    JsonObject point;
    point.Str("verb", kVerbNames[vb]);
    env.points.push_back(AddLatency(&point, steady_lat[vb]));
  }
  JsonObject admitted_json;
  AddLatency(&admitted_json, admitted);
  env.extra
      .Raw("steady", JsonObject()
                         .Num("seconds", steady_s, 3)
                         .Int("max_inflight", flags.connections + 64)
                         .Int("requests_ok", steady_ok)
                         .Int("busy", busy[kSteady])
                         .Num("throughput_rps", steady_ok / steady_s, 1)
                         .str())
      .Raw("overload", JsonObject()
                           .Num("seconds", overload_s, 3)
                           .Int("max_inflight", flags.overload_inflight)
                           .Int("busy_rejections", busy[kOverload])
                           .Raw("admitted", admitted_json.str())
                           .str())
      .Raw("server", JsonObject()
                         .Int("accepted", st.accepted)
                         .Int("requests_admitted", st.requests_admitted)
                         .Int("responses", st.responses)
                         .Int("busy_rejected", st.busy_rejected)
                         .Int("bad_frames", st.bad_frames)
                         .str());

  std::printf(
      "steady:   %.0f req/s  RETRIEVE p50=%.0fus p99=%.0fus p999=%.0fus\n",
      static_cast<double>(steady_ok) / steady_s, steady_lat[0].p50_us,
      steady_lat[0].p99_us, steady_lat[0].p999_us);
  std::printf(
      "overload: admitted=%llu busy=%llu  admitted p99=%.0fus (budget %u)\n",
      static_cast<unsigned long long>(admitted.count),
      static_cast<unsigned long long>(busy[kOverload]), admitted.p99_us,
      flags.overload_inflight);
  WriteEnvelope(args.json_path, env);
  return 0;
}
