#include "replay.h"

#include "closed_loop.h"
#include "deployment.h"
#include "layers.h"
#include "net/client.h"
#include "net/service.h"
#include "obs/profile.h"

namespace objbench {

using objrep::Query;
using objrep::Status;
namespace net = objrep::net;

namespace {

net::Request ToRequest(const Query& q) {
  net::Request req;
  req.verb = net::Verb::kRetrieve;
  req.lo_parent = q.lo_parent;
  req.num_top = q.num_top;
  req.attr_index = static_cast<uint8_t>(q.attr_index);
  return req;
}

/// Core pass over `slice`; adds the per-shard sub-query time (read from a
/// profile collector the sharded engine reports into) to `*shard_ns`.
Status CorePass(Deployment* d, const std::vector<const Query*>& slice,
                int64_t* total_ns, int64_t* shard_ns) {
  for (const Query* q : slice) {
    objrep::ProfileCollector collector;
    objrep::ProfileCollector::Scope scope(&collector);
    objrep::RetrieveResult result;
    const int64_t t0 = NowNs();
    OBJREP_RETURN_NOT_OK(d->DirectRetrieve(*q, &result));
    *total_ns += NowNs() - t0;
    for (const objrep::ShardProfile& s : collector.profile.shards) {
      *shard_ns += static_cast<int64_t>(s.us) * 1000;
    }
  }
  return Status::OK();
}

}  // namespace

Status Replay(Deployment* d, const std::vector<Query>& requests,
              uint32_t count, ReplayResult* out) {
  std::vector<const Query*> slice;
  for (const Query& q : requests) {
    if (slice.size() == count) break;
    if (q.kind == Query::Kind::kRetrieve) slice.push_back(&q);
  }
  if (slice.empty()) return Status::InvalidArgument("no retrieves to replay");
  const double n = static_cast<double>(slice.size());
  *out = ReplayResult{};
  out->retrieves = static_cast<uint32_t>(slice.size());

  int64_t warm_ns = 0, warm_shard_ns = 0;
  OBJREP_RETURN_NOT_OK(CorePass(d, slice, &warm_ns, &warm_shard_ns));

  // Client pass.
  {
    net::ObjClient client;
    OBJREP_RETURN_NOT_OK(client.Connect("127.0.0.1", d->port()));
    LayerSnapshot before = LayerSnapshot::Take(*d);
    int64_t ns = 0;
    net::Response resp;
    for (const Query* q : slice) {
      const int64_t t0 = NowNs();
      OBJREP_RETURN_NOT_OK(client.Call(ToRequest(*q), &resp));
      ns += NowNs() - t0;
      if (resp.status != net::RespStatus::kOk) {
        return Status::IOError("replay: " + resp.error);
      }
    }
    LayerSnapshot delta = Delta(LayerSnapshot::Take(*d), before);
    out->client_us = static_cast<double>(ns) / 1e3 / n;
    out->queue_us =
        static_cast<double>(delta.histogram("threadpool.queue_wait_us").sum) / n;
    out->server_execute_us =
        static_cast<double>(delta.histogram("net.request_us.RETRIEVE").sum) / n;
  }

  // Service pass.
  {
    std::unique_ptr<net::ObjService> service =
        d->engine() != nullptr
            ? std::make_unique<net::ObjService>(d->engine(), d->def().strategy,
                                                objrep::StrategyOptions{})
            : std::make_unique<net::ObjService>(d->db(), d->def().strategy,
                                                objrep::StrategyOptions{});
    int64_t ns = 0;
    for (const Query* q : slice) {
      net::Request req = ToRequest(*q);
      const int64_t t0 = NowNs();
      net::Response resp = service->Execute(req);
      ns += NowNs() - t0;
      if (resp.status != net::RespStatus::kOk) {
        return Status::IOError("replay: " + resp.error);
      }
    }
    out->service_us = static_cast<double>(ns) / 1e3 / n;
  }

  // Core pass.
  {
    LayerSnapshot before = LayerSnapshot::Take(*d);
    int64_t ns = 0, shard_ns = 0;
    OBJREP_RETURN_NOT_OK(CorePass(d, slice, &ns, &shard_ns));
    LayerSnapshot delta = Delta(LayerSnapshot::Take(*d), before);
    out->core_us = static_cast<double>(ns) / 1e3 / n;
    out->shard_sum_us = static_cast<double>(shard_ns) / 1e3 / n;
    out->storage_us = static_cast<double>(delta.counter("disk.device_us")) / n;
  }
  return Status::OK();
}

}  // namespace objbench
