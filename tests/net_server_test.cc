// End-to-end tests for the object server (DESIGN.md §13): a real epoll
// server on a loopback ephemeral port, driven by the synchronous client
// and by raw sockets (for pipelining and deliberately-corrupt bytes).
// Covers wire-vs-embedded result equivalence, per-request strategy
// override, admission control (SERVER_BUSY shedding), corrupt-frame
// handling, unavailable strategies on one and two shards, and graceful
// drain through the SHUTDOWN verb.
#include "net/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/frame.h"
#include "objstore/database.h"
#include "shard/engine.h"
#include "shard/sharded_db.h"

namespace objrep {
namespace net {
namespace {

DatabaseSpec ServerSpec() {
  DatabaseSpec spec;
  spec.num_parents = 400;
  spec.size_unit = 5;
  spec.use_factor = 5;
  spec.overlap_factor = 1;
  spec.num_child_rels = 2;
  spec.buffer_pages = 256;
  spec.build_cache = true;
  spec.build_cluster = true;
  spec.build_join_index = true;
  spec.size_cache = 40;
  spec.cache_buckets = 64;
  spec.seed = 17;
  return spec;
}

struct ServerFixture {
  std::unique_ptr<ComplexDatabase> db;
  std::unique_ptr<ObjServer> server;

  explicit ServerFixture(ServerConfig config = {}) {
    Status s = BuildDatabase(ServerSpec(), &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
    server = std::make_unique<ObjServer>(db.get(), config);
    s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~ServerFixture() {
    if (server != nullptr) server->Stop();
  }

  void Connect(ObjClient* c) {
    Status s = c->Connect("127.0.0.1", server->port());
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
};

/// Raw loopback socket for byte-level tests (pipelining, corruption).
struct RawConn {
  int fd = -1;
  FrameDecoder decoder;

  explicit RawConn(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      fd = -1;
    }
  }
  bool ok() const { return fd >= 0; }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void SendAll(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  /// Reads frames until one response is decoded; false on EOF.
  bool ReadResponse(Response* out) {
    char buf[65536];
    for (;;) {
      std::string payload;
      bool ready = false;
      if (!decoder.Next(&payload, &ready).ok()) return false;
      if (ready) return DecodeResponse(payload, out).ok();
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      decoder.Feed(buf, static_cast<size_t>(n));
    }
  }
};

TEST(NetServerTest, RetrieveOverTheWireMatchesEmbeddedExecution) {
  ServerFixture fix;
  ObjClient client;
  fix.Connect(&client);

  Query q;
  q.kind = Query::Kind::kRetrieve;
  q.lo_parent = 25;
  q.num_top = 40;
  q.attr_index = 1;
  std::unique_ptr<Strategy> direct;
  ASSERT_TRUE(MakeStrategy(StrategyKind::kDfs, fix.db.get(), {}, &direct).ok());
  RetrieveResult expected;
  ASSERT_TRUE(direct->ExecuteRetrieve(q, &expected).ok());

  std::vector<int32_t> values;
  Status s = client.Retrieve(25, 40, 1, &values,
                             static_cast<uint8_t>(StrategyKind::kDfs));
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(values, expected.values);
}

TEST(NetServerTest, EveryStrategyOverrideReturnsEquivalentValues) {
  // Strategies traverse in different orders (and BFSNODUP eliminates
  // duplicate fetches), so equivalence is the multiset of values — the
  // same contract strategy_test asserts for the embedded engine.
  ServerFixture fix;
  ObjClient client;
  fix.Connect(&client);
  std::vector<int32_t> baseline;
  ASSERT_TRUE(client
                  .Retrieve(10, 30, 0, &baseline,
                            static_cast<uint8_t>(StrategyKind::kDfs))
                  .ok());
  std::multiset<int32_t> expect(baseline.begin(), baseline.end());
  for (StrategyKind kind :
       {StrategyKind::kBfs, StrategyKind::kBfsNoDup, StrategyKind::kDfsCache,
        StrategyKind::kDfsClust, StrategyKind::kSmart,
        StrategyKind::kDfsClustCache, StrategyKind::kBfsJoinIndex,
        StrategyKind::kBfsHash, StrategyKind::kAdaptive}) {
    SCOPED_TRACE(StrategyKindName(kind));
    std::vector<int32_t> values;
    Status s =
        client.Retrieve(10, 30, 0, &values, static_cast<uint8_t>(kind));
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::multiset<int32_t> got(values.begin(), values.end());
    if (kind == StrategyKind::kBfsNoDup) {
      std::set<int32_t> gs(got.begin(), got.end());
      std::set<int32_t> es(expect.begin(), expect.end());
      EXPECT_EQ(gs, es);
      EXPECT_LE(got.size(), expect.size());
    } else {
      EXPECT_EQ(got, expect);
    }
  }
}

TEST(NetServerTest, UpdateOverTheWireIsVisibleToLaterRetrieves) {
  ServerFixture fix;
  ObjClient client;
  fix.Connect(&client);

  // Rewrite ret1 of every child in the database to one constant; a full
  // retrieve of attr 0 must then see only that constant.
  const uint32_t children_per_rel =
      fix.db->spec.num_children_total() / fix.db->spec.num_child_rels;
  std::vector<Oid> all;
  for (const auto& rel : fix.db->child_rels) {
    for (uint32_t k = 0; k < children_per_rel; ++k) {
      all.push_back(Oid{rel->rel_id(), k});
    }
  }
  Response resp;
  Status s = client.Update(all, 4242, kDefaultStrategyByte, &resp);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(resp.updated, all.size());

  std::vector<int32_t> values;
  ASSERT_TRUE(
      client.Retrieve(0, fix.db->spec.num_parents, 0, &values).ok());
  ASSERT_FALSE(values.empty());
  for (int32_t v : values) ASSERT_EQ(v, 4242);
}

TEST(NetServerTest, BadRequestsAreAnsweredWithoutKillingTheConnection) {
  ServerFixture fix;
  ObjClient client;
  fix.Connect(&client);

  Response resp;
  // Parent range beyond |ParentRel|.
  Request req;
  req.verb = Verb::kRetrieve;
  req.lo_parent = 1u << 30;
  req.num_top = 10;
  ASSERT_TRUE(client.Call(std::move(req), &resp).ok());
  EXPECT_EQ(resp.status, RespStatus::kBadRequest);
  EXPECT_FALSE(resp.error.empty());

  // Unknown strategy byte.
  Request req2;
  req2.verb = Verb::kRetrieve;
  req2.num_top = 5;
  req2.strategy = 200;
  ASSERT_TRUE(client.Call(std::move(req2), &resp).ok());
  EXPECT_EQ(resp.status, RespStatus::kBadRequest);

  // OID naming no relation.
  Request req3;
  req3.verb = Verb::kUpdate;
  req3.update_targets.push_back(Oid{999999, 0});
  ASSERT_TRUE(client.Call(std::move(req3), &resp).ok());
  EXPECT_EQ(resp.status, RespStatus::kBadRequest);

  // The connection survived all three rejections.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, UnavailableStrategyIsABadRequestOnOneAndTwoShards) {
  // DFSCACHE needs the Cache, which this database lacks: a client error,
  // answered without dropping the connection, whether the server fronts
  // the database directly (a 1-shard engine) or a 2-shard engine.
  DatabaseSpec spec = ServerSpec();
  spec.build_cache = false;
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  std::unique_ptr<shard::ShardedDatabase> sdb;
  ASSERT_TRUE(shard::BuildShardedDatabase(spec, 2, &sdb).ok());
  shard::ShardedEngine engine(sdb.get(), StrategyOptions{});
  ObjServer one_shard(db.get(), ServerConfig{});
  ObjServer two_shards(&engine, ServerConfig{});

  for (ObjServer* server : {&one_shard, &two_shards}) {
    SCOPED_TRACE(server == &one_shard ? "1 shard" : "2 shards");
    ASSERT_TRUE(server->Start().ok());
    ObjClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
    Request req;
    req.verb = Verb::kRetrieve;
    req.num_top = 5;
    req.strategy = static_cast<uint8_t>(StrategyKind::kDfsCache);
    Response resp;
    ASSERT_TRUE(client.Call(std::move(req), &resp).ok());
    EXPECT_EQ(resp.status, RespStatus::kBadRequest);
    EXPECT_FALSE(resp.error.empty());
    // The connection is still usable, for a strategy the database has.
    EXPECT_TRUE(client.Ping().ok());
    std::vector<int32_t> values;
    EXPECT_TRUE(client
                    .Retrieve(0, 5, 0, &values,
                              static_cast<uint8_t>(StrategyKind::kDfs))
                    .ok());
    EXPECT_FALSE(values.empty());
    server->Stop();
  }
}

TEST(NetServerTest, CorruptFrameDrawsOneErrorResponseThenClose) {
  ServerFixture fix;
  RawConn raw(fix.server->port());
  ASSERT_TRUE(raw.ok());

  std::string frame = EncodeFrame(EncodeRequest(Request{}));
  frame[0] ^= 0x5A;  // break the magic
  raw.SendAll(frame);
  Response resp;
  ASSERT_TRUE(raw.ReadResponse(&resp));
  EXPECT_EQ(resp.status, RespStatus::kBadRequest);
  EXPECT_FALSE(resp.error.empty());
  // Then EOF: a desynced stream cannot be read further.
  char byte;
  EXPECT_EQ(::recv(raw.fd, &byte, 1, 0), 0);
  EXPECT_GE(fix.server->stats().bad_frames, 1u);
}

TEST(NetServerTest, SemanticallyTruncatedPayloadIsRejected) {
  ServerFixture fix;
  RawConn raw(fix.server->port());
  ASSERT_TRUE(raw.ok());

  // A frame whose checksum is valid but whose payload is a truncated
  // RETRIEVE (frame-level integrity cannot vouch for message shape).
  Request req;
  req.verb = Verb::kRetrieve;
  req.num_top = 10;
  std::string payload = EncodeRequest(req);
  payload.resize(payload.size() - 3);
  raw.SendAll(EncodeFrame(payload));
  Response resp;
  ASSERT_TRUE(raw.ReadResponse(&resp));
  EXPECT_EQ(resp.status, RespStatus::kBadRequest);
}

TEST(NetServerTest, OverloadShedsWithServerBusyInsteadOfCollapsing) {
  ServerConfig config;
  config.max_inflight = 1;  // admit one request at a time
  config.max_conn_inflight = 1024;  // don't throttle: force shedding
  config.num_workers = 2;
  ServerFixture fix(config);
  RawConn raw(fix.server->port());
  ASSERT_TRUE(raw.ok());

  // Pipeline a burst: the loop parses the whole burst before any worker
  // completion is drained, so at most one request is admitted from it.
  constexpr int kBurst = 32;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    Request req;
    req.verb = Verb::kRetrieve;
    req.id = static_cast<uint64_t>(i) + 1;
    req.lo_parent = 0;
    req.num_top = 5;
    burst += EncodeFrame(EncodeRequest(req));
  }
  raw.SendAll(burst);

  int ok = 0, busy = 0;
  for (int i = 0; i < kBurst; ++i) {
    Response resp;
    ASSERT_TRUE(raw.ReadResponse(&resp)) << "response " << i;
    if (resp.status == RespStatus::kOk) {
      ++ok;
      EXPECT_FALSE(resp.values.empty());
    } else {
      EXPECT_EQ(resp.status, RespStatus::kServerBusy);
      ++busy;
    }
  }
  EXPECT_GE(ok, 1);    // overload still makes progress
  EXPECT_GE(busy, 1);  // and sheds, rather than queueing unboundedly
  EXPECT_EQ(fix.server->stats().busy_rejected, static_cast<uint64_t>(busy));

  // The shed connection is fully usable afterwards.
  Request ping;
  ping.verb = Verb::kPing;
  ping.id = 777;
  raw.SendAll(EncodeFrame(EncodeRequest(ping)));
  Response resp;
  ASSERT_TRUE(raw.ReadResponse(&resp));
  EXPECT_EQ(resp.status, RespStatus::kOk);
  EXPECT_EQ(resp.id, 777u);
}

TEST(NetServerTest, PingAndStatsBypassAdmissionControl) {
  ServerConfig config;
  config.max_inflight = 1;
  ServerFixture fix(config);
  fix.server->set_max_inflight(1);
  ObjClient client;
  fix.Connect(&client);
  // Even with the tiny budget, liveness and introspection always answer.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Ping().ok());
  }
  std::string stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_NE(stats.find("\"busy_rejected\""), std::string::npos);
  EXPECT_NE(stats.find("\"num_parents\":400"), std::string::npos);
}

TEST(NetServerTest, ShutdownVerbDrainsAndExitsCleanly) {
  ServerFixture fix;
  ObjClient client;
  fix.Connect(&client);
  std::vector<int32_t> values;
  ASSERT_TRUE(client.Retrieve(0, 10, 0, &values).ok());
  ASSERT_TRUE(client.Shutdown().ok());  // answered OK *before* the drain
  fix.server->Wait();

  // The drained server refuses new connections.
  ObjClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", fix.server->port()).ok());

  ObjServer::Stats st = fix.server->stats();
  EXPECT_EQ(st.inflight, 0);
  EXPECT_GE(st.responses, 1u);
  fix.server->Stop();  // idempotent with the verb-triggered drain
  fix.server->Stop();
}

TEST(NetServerTest, RequestStopDrainsFromAnotherThread) {
  ServerFixture fix;
  ObjClient client;
  fix.Connect(&client);
  ASSERT_TRUE(client.Ping().ok());
  fix.server->RequestStop();
  fix.server->Wait();
  ObjServer::Stats st = fix.server->stats();
  EXPECT_EQ(st.inflight, 0);
}

TEST(NetServerTest, ManyConcurrentClientsSeeConsistentResults) {
  // Each strategy's traversal order is deterministic, so every client
  // running one strategy must see bytes-identical results every time,
  // even with 16 connections interleaving on the worker pool.
  ServerFixture fix;
  std::vector<int32_t> expected_dfs, expected_bfs;
  {
    ObjClient c;
    fix.Connect(&c);
    ASSERT_TRUE(c.Retrieve(50, 20, 2, &expected_dfs,
                           static_cast<uint8_t>(StrategyKind::kDfs))
                    .ok());
    ASSERT_TRUE(c.Retrieve(50, 20, 2, &expected_bfs,
                           static_cast<uint8_t>(StrategyKind::kBfs))
                    .ok());
  }
  constexpr int kClients = 16;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ObjClient c;
      if (!c.Connect("127.0.0.1", fix.server->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      const bool dfs = i % 2 == 0;
      const uint8_t strategy = static_cast<uint8_t>(
          dfs ? StrategyKind::kDfs : StrategyKind::kBfs);
      const std::vector<int32_t>& expected =
          dfs ? expected_dfs : expected_bfs;
      for (int r = 0; r < 20; ++r) {
        std::vector<int32_t> values;
        if (!c.Retrieve(50, 20, 2, &values, strategy).ok() ||
            values != expected) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace net
}  // namespace objrep
