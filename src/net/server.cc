#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "obs/heat_map.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/thread_pool.h"

namespace objrep {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/// Graceful-drain bound: after Stop()/SHUTDOWN, connections that still
/// cannot flush after this long are force-closed.
constexpr std::chrono::seconds kDrainTimeout{10};

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

/// Registry-only metrics, process-wide (the registry pattern of DESIGN.md
/// §11: look up once, cache the pointers). The counts ObjServer::Stats
/// reports are the Impl's own child counters instead.
struct NetMetrics {
  Counter* requests = MetricsRegistry::Global().GetCounter("net.requests");
  Counter* bytes_in = MetricsRegistry::Global().GetCounter("net.bytes_in");
  Counter* bytes_out = MetricsRegistry::Global().GetCounter("net.bytes_out");
  Gauge* connections =
      MetricsRegistry::Global().GetGauge("net.connections");
  Gauge* inflight = MetricsRegistry::Global().GetGauge("net.inflight");
  Histogram* retrieve_us =
      MetricsRegistry::Global().GetHistogram("net.request_us.RETRIEVE");
  Histogram* update_us =
      MetricsRegistry::Global().GetHistogram("net.request_us.UPDATE");
};

NetMetrics& Metrics() {
  static NetMetrics* m = new NetMetrics();
  return *m;
}

}  // namespace

struct ObjServer::Impl {
  /// One client connection. Every field except the shared_ptr refcount is
  /// owned by the event loop; workers only ever hold the shared_ptr and
  /// hand it back through the completion queue.
  struct Connection {
    int fd = -1;
    FrameDecoder decoder;
    std::deque<std::string> outq;  // encoded frames awaiting write
    size_t out_off = 0;            // bytes of outq.front() already written
    uint32_t inflight = 0;         // admitted requests not yet answered
    bool throttled = false;        // EPOLLIN dropped at max_conn_inflight
    bool want_write = false;       // EPOLLOUT armed
    bool close_after_flush = false;
    bool closed = false;
  };
  using ConnPtr = std::shared_ptr<Connection>;

  struct Completion {
    ConnPtr conn;
    std::string frame;  // encoded response frame
  };

  ServerConfig config;
  ObjService service;
  std::atomic<uint32_t> max_inflight;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;  // eventfd: worker completions + stop requests

  std::unique_ptr<ThreadPool> pool;
  std::thread loop_thread;

  // Worker -> loop handoff.
  std::mutex comp_mu;
  std::vector<Completion> completions;  // guarded by comp_mu

  // Loop-owned connection table.
  std::unordered_map<int, ConnPtr> conns;

  std::atomic<bool> stop_requested{false};
  bool draining = false;  // loop-owned
  Clock::time_point drain_deadline{};

  // Lifecycle.
  std::mutex lifecycle_mu;
  std::condition_variable lifecycle_cv;
  bool started = false;       // guarded by lifecycle_mu
  bool loop_done = false;     // guarded by lifecycle_mu
  bool torn_down = false;     // guarded by lifecycle_mu

  // Stats (atomics: written by loop/workers, read from any thread). All
  // but `admitted` are children of the registry's net.* counters (DESIGN.md
  // §11); net.requests also counts the requests rejected at admission.
  Counter accepted{MetricsRegistry::Global().GetCounter("net.accepted")};
  Counter closed_count{
      MetricsRegistry::Global().GetCounter("net.conn_closed")};
  Counter responses{MetricsRegistry::Global().GetCounter("net.responses")};
  Counter busy_rejected{
      MetricsRegistry::Global().GetCounter("net.busy_rejected")};
  Counter shutdown_rejected{
      MetricsRegistry::Global().GetCounter("net.shutdown_rejected")};
  Counter bad_frames{MetricsRegistry::Global().GetCounter("net.bad_frames")};
  Counter pings{MetricsRegistry::Global().GetCounter("net.pings")};
  std::atomic<uint64_t> admitted{0};
  std::atomic<int64_t> inflight_total{0};

  /// `backend` is a ComplexDatabase (served as a 1-shard engine) or a
  /// shard::ShardedEngine; ObjService owns the difference.
  template <typename Backend>
  Impl(Backend* backend, ServerConfig cfg)
      : config(std::move(cfg)),
        service(backend, config.default_strategy, config.strategy_options),
        max_inflight(config.max_inflight == 0 ? 1 : config.max_inflight) {}

  // --- Event-loop helpers (loop thread only, unless noted). ---

  Status SetNonBlocking(int fd) {
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      return Errno("fcntl");
    }
    return Status::OK();
  }

  void UpdateEvents(const ConnPtr& c) {
    epoll_event ev{};
    ev.data.fd = c->fd;
    ev.events = 0;
    if (!c->throttled && !c->close_after_flush) ev.events |= EPOLLIN;
    if (c->want_write) ev.events |= EPOLLOUT;
    epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  }

  void CloseConn(const ConnPtr& c) {
    if (c->closed) return;
    epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    c->closed = true;
    conns.erase(c->fd);
    closed_count.Add();
    Metrics().connections->Sub();
  }

  void EnqueueResponse(const ConnPtr& c, const Response& resp,
                       uint64_t trace_id = 0) {
    // Responses echo the request's trace id so the client can pair its
    // own spans with the server's without protocol-level plumbing.
    EnqueueFrame(c, EncodeFrame(EncodeResponse(resp), trace_id));
  }

  void EnqueueFrame(const ConnPtr& c, std::string frame) {
    if (c->closed) return;
    c->outq.push_back(std::move(frame));
    FlushConn(c);
  }

  /// Writes as much buffered output as the socket accepts; arms EPOLLOUT
  /// for the rest, closes on fatal error or completed close_after_flush.
  void FlushConn(const ConnPtr& c) {
    while (!c->outq.empty()) {
      const std::string& front = c->outq.front();
      ssize_t n = ::send(c->fd, front.data() + c->out_off,
                         front.size() - c->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        Metrics().bytes_out->Add(static_cast<uint64_t>(n));
        c->out_off += static_cast<size_t>(n);
        if (c->out_off == front.size()) {
          c->outq.pop_front();
          c->out_off = 0;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      CloseConn(c);  // peer vanished mid-write
      return;
    }
    bool need_write = !c->outq.empty();
    if (need_write != c->want_write) {
      c->want_write = need_write;
      UpdateEvents(c);
    }
    if (c->outq.empty() && c->close_after_flush) CloseConn(c);
  }

  void Accept() {
    for (;;) {
      sockaddr_in addr{};
      socklen_t len = sizeof(addr);
      int fd = ::accept4(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                         &len, SOCK_NONBLOCK);
      if (fd < 0) return;  // EAGAIN, or transient (ECONNABORTED, EMFILE)
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto c = std::make_shared<Connection>();
      c->fd = fd;
      epoll_event ev{};
      ev.data.fd = fd;
      ev.events = EPOLLIN;
      if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
        ::close(fd);
        continue;
      }
      conns.emplace(fd, std::move(c));
      accepted.Add();
      Metrics().connections->Add();
    }
  }

  std::string BuildStatsJson() {
    // STATS doubles as the heat map's decay clock: self-limited to one
    // decay per HeatMap::kDecayIntervalUs however often clients poll.
    HeatMap::Global().MaybeDecay();
    std::ostringstream os;
    // The "db" section is the client's schema bootstrap: a load generator
    // needs |ParentRel| and the child relation ids to form valid
    // RETRIEVE ranges and UPDATE OIDs without sharing the server's config.
    // It reports the logical (global) shape — clients address the whole
    // store; the router is the server's business.
    shard::ShardedEngine& engine = *service.engine();
    const DatabaseSpec& spec = engine.spec();
    const ComplexDatabase& catalog = *engine.shard(0);
    os << "{\"db\":{"
       << "\"num_parents\":" << spec.num_parents
       << ",\"children_per_rel\":"
       << spec.num_children_total() / spec.num_child_rels
       << ",\"child_rels\":[";
    for (size_t r = 0; r < catalog.child_rels.size(); ++r) {
      if (r > 0) os << ",";
      os << catalog.child_rels[r]->rel_id();
    }
    os << "]}";
    // Each shard's slice of the heat ranking: the global top parents
    // routed back to their owning shard, so a reclusterer (or operator)
    // can see which shards carry the skew.
    std::vector<HeatMap::ParentHeat> hot = HeatMap::Global().TopParents(64);
    os << ",\"shards\":[";
    for (uint32_t k = 0; k < engine.num_shards(); ++k) {
      const ComplexDatabase& sdb = *engine.shard(k);
      IoCounters io = sdb.disk->counters();
      if (k > 0) os << ",";
      os << "{\"parents\":" << engine.num_local_parents(k)
         << ",\"pages\":" << sdb.TotalPages()
         << ",\"disk_reads\":" << io.reads
         << ",\"disk_writes\":" << io.writes;
      if (sdb.cache != nullptr) {
        CacheManager::CacheStats cs = sdb.cache->stats();
        os << ",\"cache_hits\":" << cs.hits
           << ",\"cache_invalidated_units\":" << cs.invalidated_units;
      }
      os << ",\"hot_parents\":[";
      size_t listed = 0;
      for (const HeatMap::ParentHeat& p : hot) {
        if (engine.ShardOfParent(static_cast<uint32_t>(p.parent)) != k) {
          continue;
        }
        if (listed++ > 0) os << ",";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "{\"parent\":%llu,\"heat\":%.3f}",
                      static_cast<unsigned long long>(p.parent), p.heat);
        os << buf;
        if (listed >= 8) break;
      }
      os << "]}";
    }
    os << "]";
    os << ",\"server\":{"
       << "\"accepted\":" << accepted.value()
       << ",\"closed\":" << closed_count.value()
       << ",\"connections\":" << conns.size()
       << ",\"requests_admitted\":"
       << admitted.load(std::memory_order_relaxed)
       << ",\"responses\":" << responses.value()
       << ",\"busy_rejected\":" << busy_rejected.value()
       << ",\"shutdown_rejected\":" << shutdown_rejected.value()
       << ",\"bad_frames\":" << bad_frames.value()
       << ",\"pings\":" << pings.value()
       << ",\"inflight\":" << inflight_total.load(std::memory_order_relaxed)
       << ",\"max_inflight\":" << max_inflight.load(std::memory_order_relaxed)
       << ",\"default_strategy\":\""
       << StrategyKindName(service.default_strategy()) << "\""
       << "},\"heat\":" << HeatMap::Global().ToJson(16)
       << ",\"slow_queries\":{\"threshold_us\":"
       << SlowQueryRing::Global().threshold_us()
       << ",\"captured\":" << SlowQueryRing::Global().captured()
       << ",\"entries\":" << SlowQueryRing::Global().ToJson()
       << "},\"metrics\":" << MetricsRegistry::Global().ToJson() << "}";
    return os.str();
  }

  void BeginDrain() {
    if (draining) return;
    draining = true;
    drain_deadline = Clock::now() + kDrainTimeout;
    if (listen_fd >= 0) {
      epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
      ::close(listen_fd);
      listen_fd = -1;
    }
    Trace::Instant("net_drain_begin", "net");
  }

  /// Dispatches one parsed request. Loop thread. `trace_id` is the frame
  /// header's request identity; bare clients that sent 0 get one minted
  /// here (admission is the earliest point that owns the request).
  void HandleRequest(const ConnPtr& c, Request req, uint64_t trace_id) {
    if (trace_id == 0) trace_id = TraceIdGen::Next();
    switch (req.verb) {
      case Verb::kPing: {
        pings.Add();
        Response resp;
        resp.verb = Verb::kPing;
        resp.id = req.id;
        EnqueueResponse(c, resp, trace_id);
        return;
      }
      case Verb::kStats: {
        Response resp;
        resp.verb = Verb::kStats;
        resp.id = req.id;
        resp.stats_json = BuildStatsJson();
        EnqueueResponse(c, resp, trace_id);
        return;
      }
      case Verb::kShutdown: {
        Response resp;
        resp.verb = Verb::kShutdown;
        resp.id = req.id;
        EnqueueResponse(c, resp, trace_id);
        BeginDrain();
        return;
      }
      case Verb::kRetrieve:
      case Verb::kUpdate:
        break;
    }

    Metrics().requests->Add();
    if (draining) {
      shutdown_rejected.Add();
      Response resp;
      resp.status = RespStatus::kShuttingDown;
      resp.verb = req.verb;
      resp.id = req.id;
      resp.error = "server is draining";
      EnqueueResponse(c, resp, trace_id);
      return;
    }
    if (inflight_total.load(std::memory_order_relaxed) >=
        static_cast<int64_t>(max_inflight.load(std::memory_order_relaxed))) {
      busy_rejected.Add();
      Trace::Instant("net_busy_rejected", "net");
      Response resp;
      resp.status = RespStatus::kServerBusy;
      resp.verb = req.verb;
      resp.id = req.id;
      resp.error = "in-flight budget exhausted";
      EnqueueResponse(c, resp, trace_id);
      return;
    }

    inflight_total.fetch_add(1, std::memory_order_relaxed);
    Metrics().inflight->Add();
    c->inflight++;
    const Verb verb = req.verb;
    bool submitted = pool->TrySubmit(
        [this, c, verb, trace_id, req = std::move(req)]() mutable {
          // Establish the request context before the first span so every
          // event this request records — here, in the service, in the
          // shard engines, in MVCC/WAL — carries the same trace id.
          ScopedTraceId trace_scope(trace_id);
          TraceSpan span("net_request", "net");
          span.SetArg("verb", static_cast<uint64_t>(verb));
          uint64_t t0 = Trace::NowMicros();
          Response resp = service.Execute(req);
          uint64_t us = Trace::NowMicros() - t0;
          (verb == Verb::kRetrieve ? Metrics().retrieve_us
                                   : Metrics().update_us)
              ->Record(us);
          Completion done{c, EncodeFrame(EncodeResponse(resp), trace_id)};
          {
            std::lock_guard<std::mutex> l(comp_mu);
            completions.push_back(std::move(done));
          }
          Wake();
        });
    if (!submitted) {
      // Pool already draining (Stop racing a late dispatch): reject
      // cleanly instead of abandoning the request.
      inflight_total.fetch_sub(1, std::memory_order_relaxed);
      Metrics().inflight->Sub();
      c->inflight--;
      shutdown_rejected.Add();
      Response resp;
      resp.status = RespStatus::kShuttingDown;
      resp.verb = verb;
      resp.id = req.id;
      resp.error = "server is draining";
      EnqueueResponse(c, resp, trace_id);
      return;
    }
    admitted.fetch_add(1, std::memory_order_relaxed);
  }

  /// Parses and handles every complete frame buffered for `c`, stopping
  /// at the throttle cap. Loop thread.
  void ParseFrames(const ConnPtr& c) {
    while (!c->closed && !c->throttled) {
      std::string payload;
      bool ready = false;
      uint64_t trace_id = 0;
      Status s = c->decoder.Next(&payload, &ready, &trace_id);
      if (!s.ok()) {
        // Desynced stream: one final error response, then close. The
        // response still frames correctly — it is the inbound direction
        // that lost sync.
        bad_frames.Add();
        Trace::Instant("net_bad_frame", "net");
        Response resp;
        resp.status = RespStatus::kBadRequest;
        resp.verb = Verb::kPing;
        resp.error = s.ToString();
        c->close_after_flush = true;
        UpdateEvents(c);  // stop reading a poisoned stream
        EnqueueResponse(c, resp);
        return;
      }
      if (!ready) return;
      Request req;
      s = DecodeRequest(payload, &req);
      if (!s.ok()) {
        bad_frames.Add();
        Response resp;
        resp.status = RespStatus::kBadRequest;
        resp.verb = Verb::kPing;
        resp.error = s.ToString();
        c->close_after_flush = true;
        UpdateEvents(c);
        EnqueueResponse(c, resp);
        return;
      }
      HandleRequest(c, std::move(req), trace_id);
      if (c->inflight >= config.max_conn_inflight && !c->throttled) {
        c->throttled = true;
        UpdateEvents(c);
      }
    }
  }

  void HandleReadable(const ConnPtr& c) {
    char buf[65536];
    size_t total = 0;
    for (;;) {
      ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        Metrics().bytes_in->Add(static_cast<uint64_t>(n));
        c->decoder.Feed(buf, static_cast<size_t>(n));
        total += static_cast<size_t>(n);
        // Fairness bound: one connection's burst yields to the rest of
        // the loop; level-triggered epoll re-fires for the remainder.
        if (total >= 262144) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n == 0 && c->decoder.pending_bytes() > 0 &&
          !c->decoder.poisoned()) {
        // Peer closed mid-frame: a truncated frame, rejected like any
        // other corruption (there is no one left to answer).
        bad_frames.Add();
        Trace::Instant("net_truncated_frame", "net");
      }
      // n == 0 (orderly close) or a hard error. In-flight responses for
      // this connection are dropped at completion time.
      CloseConn(c);
      return;
    }
    ParseFrames(c);
  }

  /// Moves worker completions into connection write buffers. Loop thread.
  void DrainCompletions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> l(comp_mu);
      batch.swap(completions);
    }
    for (Completion& done : batch) {
      inflight_total.fetch_sub(1, std::memory_order_relaxed);
      Metrics().inflight->Sub();
      responses.Add();
      ConnPtr& c = done.conn;
      if (c->closed) continue;  // client left before the answer
      c->inflight--;
      EnqueueFrame(c, std::move(done.frame));
      if (c->throttled && c->inflight < config.max_conn_inflight &&
          !c->closed && !c->close_after_flush) {
        c->throttled = false;
        UpdateEvents(c);
        ParseFrames(c);  // frames buffered while throttled
      }
    }
  }

  void Wake() {
    uint64_t one = 1;
    // Signal-safe: RequestStop may run inside a signal handler.
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  bool DrainComplete() {
    if (!draining) return false;
    if (Clock::now() >= drain_deadline) return true;
    if (inflight_total.load(std::memory_order_relaxed) != 0) return false;
    {
      std::lock_guard<std::mutex> l(comp_mu);
      if (!completions.empty()) return false;
    }
    for (const auto& [fd, c] : conns) {
      if (!c->outq.empty()) return false;
    }
    return true;
  }

  void Loop() {
    std::vector<epoll_event> events(1024);
    for (;;) {
      if (stop_requested.load(std::memory_order_relaxed)) BeginDrain();
      if (DrainComplete()) break;
      int timeout_ms = draining ? 20 : -1;
      int n = epoll_wait(epoll_fd, events.data(),
                         static_cast<int>(events.size()), timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epoll itself failed; tear down
      }
      for (int i = 0; i < n; ++i) {
        const epoll_event& ev = events[i];
        if (ev.data.fd == wake_fd) {
          uint64_t tmp;
          while (::read(wake_fd, &tmp, sizeof(tmp)) > 0) {
          }
          continue;
        }
        if (ev.data.fd == listen_fd) {
          Accept();
          continue;
        }
        auto it = conns.find(ev.data.fd);
        if (it == conns.end()) continue;
        ConnPtr c = it->second;  // keep alive across handlers
        if (ev.events & (EPOLLHUP | EPOLLERR)) {
          CloseConn(c);
          continue;
        }
        if (ev.events & EPOLLOUT) FlushConn(c);
        if (!c->closed && (ev.events & EPOLLIN)) HandleReadable(c);
      }
      DrainCompletions();
    }
    // Drain finished (or deadline): close every remaining connection.
    while (!conns.empty()) CloseConn(conns.begin()->second);
    {
      std::lock_guard<std::mutex> l(lifecycle_mu);
      loop_done = true;
    }
    lifecycle_cv.notify_all();
  }
};

ObjServer::ObjServer(ComplexDatabase* db, ServerConfig config)
    : impl_(std::make_unique<Impl>(db, std::move(config))) {}

ObjServer::ObjServer(shard::ShardedEngine* engine, ServerConfig config)
    : impl_(std::make_unique<Impl>(engine, std::move(config))) {}

ObjServer::~ObjServer() { Stop(); }

Status ObjServer::Start() {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> l(im.lifecycle_mu);
    if (im.started) return Status::InvalidArgument("server already started");
    im.started = true;
  }

  // Observability knobs are process-global (the trackers are shared with
  // the embedded engine); the serving config is their natural owner.
  SlowQueryRing::Global().set_threshold_us(im.config.slow_query_us);
  HeatMap::Global().SetEnabled(im.config.enable_heat);

  im.listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (im.listen_fd < 0) return Errno("socket");
  int one = 1;
  setsockopt(im.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(im.config.port);
  if (inet_pton(AF_INET, im.config.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address: " + im.config.host);
  }
  if (::bind(im.listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Errno("bind");
  }
  if (::listen(im.listen_fd, 4096) < 0) return Errno("listen");
  socklen_t len = sizeof(addr);
  if (getsockname(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Errno("getsockname");
  }
  port_.store(ntohs(addr.sin_port), std::memory_order_relaxed);

  im.epoll_fd = epoll_create1(0);
  if (im.epoll_fd < 0) return Errno("epoll_create1");
  im.wake_fd = eventfd(0, EFD_NONBLOCK);
  if (im.wake_fd < 0) return Errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = im.listen_fd;
  if (epoll_ctl(im.epoll_fd, EPOLL_CTL_ADD, im.listen_fd, &ev) < 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.data.fd = im.wake_fd;
  if (epoll_ctl(im.epoll_fd, EPOLL_CTL_ADD, im.wake_fd, &ev) < 0) {
    return Errno("epoll_ctl(eventfd)");
  }

  im.pool = std::make_unique<ThreadPool>(
      im.config.num_workers == 0 ? 1 : im.config.num_workers, "threadpool");
  im.loop_thread = std::thread([this] { impl_->Loop(); });
  return Status::OK();
}

void ObjServer::RequestStop() {
  impl_->stop_requested.store(true, std::memory_order_relaxed);
  if (impl_->wake_fd >= 0) impl_->Wake();
}

void ObjServer::Wait() {
  Impl& im = *impl_;
  std::unique_lock<std::mutex> l(im.lifecycle_mu);
  im.lifecycle_cv.wait(l, [&im] { return im.loop_done || !im.started; });
}

void ObjServer::Stop() {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> l(im.lifecycle_mu);
    if (!im.started || im.torn_down) return;
    im.torn_down = true;
  }
  RequestStop();
  if (im.loop_thread.joinable()) im.loop_thread.join();
  if (im.pool != nullptr) im.pool->Shutdown();
  // Late completions from force-closed drains: free the buffers, settle
  // the gauge.
  {
    std::lock_guard<std::mutex> l(im.comp_mu);
    for (size_t i = 0; i < im.completions.size(); ++i) {
      im.inflight_total.fetch_sub(1, std::memory_order_relaxed);
      Metrics().inflight->Sub();
    }
    im.completions.clear();
  }
  if (im.listen_fd >= 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
  }
  if (im.epoll_fd >= 0) {
    ::close(im.epoll_fd);
    im.epoll_fd = -1;
  }
  if (im.wake_fd >= 0) {
    ::close(im.wake_fd);
    im.wake_fd = -1;
  }
  {
    std::lock_guard<std::mutex> l(im.lifecycle_mu);
    im.loop_done = true;
  }
  im.lifecycle_cv.notify_all();
}

void ObjServer::set_max_inflight(uint32_t n) {
  impl_->max_inflight.store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

ObjServer::Stats ObjServer::stats() const {
  const Impl& im = *impl_;
  Stats s;
  s.accepted = im.accepted.value();
  s.closed = im.closed_count.value();
  s.requests_admitted = im.admitted.load(std::memory_order_relaxed);
  s.responses = im.responses.value();
  s.busy_rejected = im.busy_rejected.value();
  s.shutdown_rejected = im.shutdown_rejected.value();
  s.bad_frames = im.bad_frames.value();
  s.pings = im.pings.value();
  s.connections = static_cast<int64_t>(s.accepted) -
                  static_cast<int64_t>(s.closed);
  s.inflight = im.inflight_total.load(std::memory_order_relaxed);
  return s;
}

}  // namespace net
}  // namespace objrep
