// Closed-loop load over loopback: one thread per synchronous ObjClient
// connection, each sending its next request only after the previous
// answer arrived (ObjClient never pipelines).
//
// Client c of C sends the generated requests c, c + C, c + 2C, ... and
// wraps around when the stream runs out. Its j-th send has the global
// serial s = c + j*C, so an UPDATE's ret1 marker -(1 + s) is unique even
// across laps and decodes back to request s % N. Generated values are never
// negative, so a marker read back names exactly one send.
#ifndef OBJBENCH_CLOSED_LOOP_H_
#define OBJBENCH_CLOSED_LOOP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/client.h"
#include "objstore/workload.h"
#include "util/status.h"

namespace objbench {

class Deployment;
class MarkerOracle;

/// One client call, kept in memory by a traced phase.
struct Span {
  int64_t start_ns = 0;  ///< steady clock
  int64_t end_ns = 0;
};

/// A response kept for the read-only answer check.
struct Sample {
  uint32_t request = 0;  ///< index into the generated stream
  std::vector<int32_t> values;
};

/// One equal time slice of a recorded phase. An answer belongs to the
/// slice in which it arrived; the last slice also takes the tail after
/// the deadline.
struct SliceStats {
  double seconds = 0;
  uint64_t ok = 0;
  double cpu_s = 0;                   ///< process CPU over the slice
  std::vector<uint64_t> retrieve_ns;  ///< sorted
};

/// What one phase measured, merged over clients.
struct PhaseStats {
  double elapsed_s = 0;
  uint64_t ok_retrieves = 0;
  uint64_t ok_updates = 0;
  uint64_t rows = 0;  ///< values returned by OK retrieves
  std::vector<uint64_t> retrieve_ns;  ///< sorted
  std::vector<uint64_t> update_ns;    ///< sorted
  std::vector<Span> spans;            ///< traced phases only
  std::vector<SliceStats> slices;

  uint64_t ok() const { return ok_retrieves + ok_updates; }
};

/// Correctness bookkeeping over every phase.
struct LoopRecord {
  uint64_t attempted = 0;
  uint64_t failed = 0;   ///< refused, error, transport or wrong answer
  uint64_t wrong = 0;    ///< of which wrong answers
  std::vector<uint32_t> sent_markers;   ///< serials of UPDATEs sent
  std::vector<uint32_t> acked_markers;  ///< serials of UPDATEs answered OK
  std::vector<uint32_t> seen_markers;   ///< serials read back by retrieves
  std::vector<Sample> samples;
  std::string first_error;
};

class ClosedLoop {
 public:
  /// `requests` must outlive the loop. `oracle` (may be null) checks every
  /// retrieve answer inline; without one, every `check_every`-th send of a
  /// recorded phase is kept as a Sample, and Record() thins them evenly to
  /// `max_checks` in total.
  ClosedLoop(Deployment* deployment, const std::vector<objrep::Query>* requests,
             const MarkerOracle* oracle);
  ~ClosedLoop();
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  objrep::Status Connect();

  /// Runs every client for `seconds`; returns after all have their last
  /// answer, so the system is quiescent again. `record` keeps latencies;
  /// `traced` also keeps a Span per call.
  PhaseStats RunPhase(double seconds, bool record, bool traced,
                      uint32_t num_slices = 1);

  /// Merged correctness bookkeeping (call between phases).
  LoopRecord Record() const;

 private:
  struct Client;
  void RunClient(Client* c, int64_t start_ns, int64_t deadline_ns, bool record,
                 bool traced);

  Deployment* deployment_;
  const std::vector<objrep::Query>* requests_;
  const MarkerOracle* oracle_;
  std::vector<std::unique_ptr<Client>> clients_;
};

/// Nearest-rank percentile of sorted samples; false when fewer than ten
/// samples lie beyond it (the percentile is then not reported).
bool Percentile(const std::vector<uint64_t>& sorted, double p, double* out);

int64_t NowNs();

/// Moves every thread of the process onto `n` of the CPUs it was allowed to
/// use when first called: the `round`-th group of `n` among them, wrapping
/// around. Threads started later inherit their creator's CPUs. n = 0 does
/// nothing. False when the kernel refuses.
bool MoveToCpus(uint32_t n, uint32_t round);

}  // namespace objbench

#endif  // OBJBENCH_CLOSED_LOOP_H_
