#include "closed_loop.h"

#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "checks.h"
#include "deployment.h"
#include "layers.h"

namespace objbench {

using objrep::Query;
using objrep::Status;
namespace net = objrep::net;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool MoveToCpus(uint32_t n, uint32_t round) {
  if (n == 0) return true;
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
    return cpus;
  }();
  if (allowed.empty()) return false;
  cpu_set_t use;
  CPU_ZERO(&use);
  for (uint32_t i = 0; i < n && i < allowed.size(); ++i) {
    CPU_SET(allowed[(uint64_t{round} * n + i) % allowed.size()], &use);
  }
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) return false;
  bool ok = true;
  while (const dirent* t = readdir(tasks)) {
    if (t->d_name[0] == '.') continue;
    // A thread that exited meanwhile (ESRCH) needs no CPU.
    if (sched_setaffinity(std::atoi(t->d_name), sizeof(use), &use) != 0 &&
        errno != ESRCH) {
      ok = false;
    }
  }
  closedir(tasks);
  return ok;
}

bool Percentile(const std::vector<uint64_t>& sorted, double p, double* out) {
  const double n = static_cast<double>(sorted.size());
  if (n * (1.0 - p) < 10.0) return false;
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  *out = static_cast<double>(sorted[rank == 0 ? 0 : rank - 1]);
  return true;
}

struct ClosedLoop::Client {
  uint32_t index = 0;
  net::ObjClient conn;
  uint64_t sends = 0;  // j: this client's sends so far, over every phase
  LoopRecord record;
  PhaseStats phase;    // the running phase's share
};

ClosedLoop::ClosedLoop(Deployment* deployment,
                       const std::vector<Query>* requests,
                       const MarkerOracle* oracle)
    : deployment_(deployment), requests_(requests), oracle_(oracle) {}

ClosedLoop::~ClosedLoop() = default;

Status ClosedLoop::Connect() {
  const uint32_t n = deployment_->def().connections;
  for (uint32_t c = 0; c < n; ++c) {
    auto client = std::make_unique<Client>();
    client->index = c;
    OBJREP_RETURN_NOT_OK(client->conn.Connect("127.0.0.1", deployment_->port()));
    clients_.push_back(std::move(client));
  }
  return Status::OK();
}

void ClosedLoop::RunClient(Client* c, int64_t start_ns, int64_t deadline_ns,
                           bool record, bool traced) {
  const WorkloadDef& def = deployment_->def();
  const uint64_t num_clients = clients_.size();
  const uint64_t n = requests_->size();
  LoopRecord& rec = c->record;
  PhaseStats& ph = c->phase;
  const int64_t num_slices = static_cast<int64_t>(ph.slices.size());
  const int64_t slice_ns = std::max<int64_t>(1, (deadline_ns - start_ns) / num_slices);
  net::Response resp;
  while (NowNs() < deadline_ns) {
    if (!c->conn.connected()) {
      if (!c->conn.Connect("127.0.0.1", deployment_->port()).ok()) return;
    }
    const uint64_t serial = c->index + c->sends * num_clients;
    const uint32_t i = static_cast<uint32_t>(serial % n);
    const Query& q = (*requests_)[i];
    net::Request req;
    if (q.kind == Query::Kind::kRetrieve) {
      req.verb = net::Verb::kRetrieve;
      req.lo_parent = q.lo_parent;
      req.num_top = q.num_top;
      req.attr_index = static_cast<uint8_t>(q.attr_index);
    } else {
      req.verb = net::Verb::kUpdate;
      req.update_targets = q.update_targets;
      req.new_ret1 = -static_cast<int32_t>(serial + 1);
      rec.sent_markers.push_back(static_cast<uint32_t>(serial));
    }
    const bool update = q.kind == Query::Kind::kUpdate;
    const uint64_t sends_before = c->sends++;
    ++rec.attempted;

    const int64_t t0 = NowNs();
    Status s = c->conn.Call(std::move(req), &resp);
    const int64_t t1 = NowNs();

    bool ok = s.ok() && resp.status == net::RespStatus::kOk;
    if (!ok && rec.first_error.empty()) {
      rec.first_error = s.ok() ? std::string(net::RespStatusName(resp.status)) +
                                     ": " + resp.error
                               : s.ToString();
    }
    if (ok && !update) {
      if (oracle_ != nullptr) {
        if (!oracle_->CheckRetrieve(q, resp.values, &rec.seen_markers)) {
          ok = false;
          ++rec.wrong;
          if (rec.first_error.empty()) {
            rec.first_error = "wrong answer to request " + std::to_string(i);
          }
        }
      } else if (record && sends_before % def.check_every == 0) {
        rec.samples.push_back(Sample{i, resp.values});
      }
    }
    if (ok && update) rec.acked_markers.push_back(static_cast<uint32_t>(serial));
    if (!ok) ++rec.failed;

    if (!record || !ok) continue;
    const uint64_t ns = static_cast<uint64_t>(t1 - t0);
    SliceStats& slice =
        ph.slices[std::min((t1 - start_ns) / slice_ns, num_slices - 1)];
    ++slice.ok;
    if (update) {
      ++ph.ok_updates;
      ph.update_ns.push_back(ns);
    } else {
      ++ph.ok_retrieves;
      ph.rows += resp.values.size();
      ph.retrieve_ns.push_back(ns);
      slice.retrieve_ns.push_back(ns);
    }
    if (traced) {
      ph.spans.push_back(Span{t0, t1});
    }
  }
}

PhaseStats ClosedLoop::RunPhase(double seconds, bool record, bool traced,
                                uint32_t num_slices) {
  for (auto& c : clients_) {
    c->phase = PhaseStats{};
    c->phase.slices.resize(num_slices);
  }
  // Process CPU at each slice boundary, sampled by this thread while the
  // clients run. A workload confined to fewer CPUs than it may use moves on
  // to the next ones at each boundary, so the slice median does not rest on
  // one CPU that a neighbour happens to crowd.
  const uint32_t cpus = deployment_->def().cpus;
  MoveToCpus(cpus, 0);
  std::vector<double> cpu(num_slices + 1);
  cpu[0] = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t slice_ns = (deadline - start) / num_slices;
  std::vector<std::thread> threads;
  threads.reserve(clients_.size());
  for (auto& c : clients_) {
    threads.emplace_back(
        [this, cl = c.get(), start, deadline, record, traced] {
          RunClient(cl, start, deadline, record, traced);
        });
  }
  for (uint32_t k = 1; k < num_slices; ++k) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(start + k * slice_ns - NowNs()));
    cpu[k] = ProcessCpuSeconds();
    MoveToCpus(cpus, k);
  }
  for (std::thread& t : threads) t.join();
  cpu[num_slices] = ProcessCpuSeconds();
  const int64_t end = NowNs();

  PhaseStats out;
  out.elapsed_s = static_cast<double>(end - start) / 1e9;
  out.slices.resize(num_slices);
  for (uint32_t k = 0; k < num_slices; ++k) {
    SliceStats& s = out.slices[k];
    s.cpu_s = cpu[k + 1] - cpu[k];
    const int64_t ns = k + 1 == num_slices ? end - start - k * slice_ns : slice_ns;
    s.seconds = static_cast<double>(ns) / 1e9;
  }
  for (auto& c : clients_) {
    PhaseStats& p = c->phase;
    out.ok_retrieves += p.ok_retrieves;
    out.ok_updates += p.ok_updates;
    out.rows += p.rows;
    out.retrieve_ns.insert(out.retrieve_ns.end(), p.retrieve_ns.begin(),
                           p.retrieve_ns.end());
    out.update_ns.insert(out.update_ns.end(), p.update_ns.begin(),
                         p.update_ns.end());
    out.spans.insert(out.spans.end(), p.spans.begin(), p.spans.end());
    for (uint32_t k = 0; k < num_slices; ++k) {
      const SliceStats& cs = p.slices[k];
      out.slices[k].ok += cs.ok;
      out.slices[k].retrieve_ns.insert(out.slices[k].retrieve_ns.end(),
                                       cs.retrieve_ns.begin(),
                                       cs.retrieve_ns.end());
    }
    p = PhaseStats{};
  }
  std::sort(out.retrieve_ns.begin(), out.retrieve_ns.end());
  std::sort(out.update_ns.begin(), out.update_ns.end());
  for (SliceStats& s : out.slices) {
    std::sort(s.retrieve_ns.begin(), s.retrieve_ns.end());
  }
  return out;
}

LoopRecord ClosedLoop::Record() const {
  const size_t quota = std::max<size_t>(
      1, deployment_->def().max_checks / clients_.size());
  LoopRecord out;
  for (const auto& c : clients_) {
    const LoopRecord& r = c->record;
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.wrong += r.wrong;
    auto append = [](std::vector<uint32_t>* to,
                     const std::vector<uint32_t>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&out.sent_markers, r.sent_markers);
    append(&out.acked_markers, r.acked_markers);
    append(&out.seen_markers, r.seen_markers);
    // Thinned evenly to the client's share of max_checks, so the checked
    // answers span every recorded phase, not only its start.
    const size_t kept = std::min(r.samples.size(), quota);
    for (size_t k = 0; k < kept; ++k) {
      out.samples.push_back(r.samples[k * r.samples.size() / kept]);
    }
    if (out.first_error.empty()) out.first_error = r.first_error;
  }
  return out;
}

}  // namespace objbench
