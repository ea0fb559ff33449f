#include "deployment.h"

#include <chrono>
#include <string>
#include <utility>

#include "net/client.h"

namespace objbench {

using objrep::Query;
using objrep::Status;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Status Deployment::Create(const WorkloadDef& def, uint64_t seed,
                          uint32_t num_requests, std::vector<Query>* requests,
                          std::unique_ptr<Deployment>* out, double* setup_s) {
  std::unique_ptr<Deployment> d(new Deployment(def));
  objrep::DatabaseSpec spec = def.db;
  spec.seed = seed * 2 + 1;

  Clock::time_point t0 = Clock::now();
  const objrep::ComplexDatabase* shape = nullptr;
  if (def.shards > 1) {
    OBJREP_RETURN_NOT_OK(
        objrep::shard::BuildShardedDatabase(spec, def.shards, &d->sdb_));
    d->engine_ = std::make_unique<objrep::shard::ShardedEngine>(
        d->sdb_.get(), objrep::StrategyOptions{});
    for (auto& shard : d->sdb_->shards) d->volumes_.push_back(shard.get());
    shape = d->sdb_->reference.get();
  } else {
    OBJREP_RETURN_NOT_OK(objrep::BuildDatabase(spec, &d->db_));
    d->volumes_.push_back(d->db_.get());
    shape = d->db_.get();
  }
  double build_s = SecondsSince(t0);

  if (requests != nullptr) {
    objrep::WorkloadSpec traffic = def.traffic;
    traffic.num_queries = num_requests;
    traffic.seed = seed;
    OBJREP_RETURN_NOT_OK(objrep::GenerateWorkload(traffic, *shape, requests));
  }
  // The sharded engine never reads the reference build it was carved from.
  if (d->sdb_ != nullptr) d->sdb_->reference.reset();

  objrep::net::ServerConfig sc;
  sc.num_workers = def.workers;
  sc.default_strategy = def.strategy;
  Clock::time_point t1 = Clock::now();
  d->server_ = d->engine_ != nullptr
                   ? std::make_unique<objrep::net::ObjServer>(
                         d->engine_.get(), sc)
                   : std::make_unique<objrep::net::ObjServer>(d->db_.get(),
                                                              sc);
  OBJREP_RETURN_NOT_OK(d->server_->Start());
  {
    objrep::net::ObjClient client;
    OBJREP_RETURN_NOT_OK(client.Connect("127.0.0.1", d->server_->port()));
    std::vector<int32_t> values;
    OBJREP_RETURN_NOT_OK(client.Retrieve(0, def.traffic.num_top, 0, &values));
    if (values.empty()) {
      return Status::Corruption("first retrieve returned no values");
    }
  }
  *setup_s = build_s + SecondsSince(t1);
  *out = std::move(d);
  return Status::OK();
}

Deployment::~Deployment() {
  if (server_ != nullptr) server_->Stop();
}

uint64_t Deployment::UserBytes() const {
  const objrep::DatabaseSpec& s = def_.db;
  return uint64_t{s.num_parents} * s.parent_tuple_bytes +
         uint64_t{s.num_children_total()} * s.child_tuple_bytes;
}

Status Deployment::DirectRetrieve(const Query& q, objrep::RetrieveResult* out) {
  if (engine_ != nullptr) {
    return engine_->ExecuteRetrieve(def_.strategy, q, out);
  }
  if (direct_ == nullptr) {
    OBJREP_RETURN_NOT_OK(objrep::MakeStrategy(def_.strategy, db_.get(),
                                              objrep::StrategyOptions{},
                                              &direct_));
  }
  return direct_->ExecuteRetrieve(q, out);
}

void Deployment::SetDeviceLatency(uint32_t us) {
  for (objrep::ComplexDatabase* v : volumes_) v->disk->set_io_latency_us(us);
}

}  // namespace objbench
