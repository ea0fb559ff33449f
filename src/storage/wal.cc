#include "storage/wal.h"

#include <cstring>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "util/hash.h"
#include "util/macros.h"

namespace objrep {

namespace {

// Cumulative registry mirrors (DESIGN.md §11).
struct WalMetrics {
  Counter* records = MetricsRegistry::Global().GetCounter("wal.records");
  Counter* bytes = MetricsRegistry::Global().GetCounter("wal.bytes");
  Counter* syncs = MetricsRegistry::Global().GetCounter("wal.syncs");
  Counter* commits = MetricsRegistry::Global().GetCounter("wal.commits");
  Counter* recoveries =
      MetricsRegistry::Global().GetCounter("wal.recovery.runs");
  Counter* txns_redone =
      MetricsRegistry::Global().GetCounter("wal.recovery.txns_redone");
  Counter* pages_redone =
      MetricsRegistry::Global().GetCounter("wal.recovery.pages_redone");
};

WalMetrics& Metrics() {
  static WalMetrics* m = new WalMetrics();
  return *m;
}

// Record framing:  [u8 type][u64 txn][u32 payload_len] payload [u64 sum]
// The checksum (Checksum64, util/hash.h) covers header + payload; a record
// whose framing runs past the durable watermark or whose checksum
// mismatches is a torn tail and ends the recoverable log.
constexpr size_t kHeaderBytes = 1 + 8 + 4;
constexpr size_t kTrailerBytes = 8;

template <typename T>
T LoadLE(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void StoreLE(std::vector<uint8_t>* buf, T v) {
  const auto* p = reinterpret_cast<const uint8_t*>(&v);
  buf->insert(buf->end(), p, p + sizeof(T));
}

}  // namespace

uint64_t Wal::Begin() {
  std::lock_guard<std::mutex> guard(mu_);
  return next_txn_++;
}

void Wal::AppendRecord(Log* log, RecordType type, uint64_t txn,
                       const void* head, uint32_t head_len, const void* body,
                       uint32_t body_len) {
  std::vector<uint8_t>& bytes = log->bytes;
  const uint32_t payload_len = head_len + body_len;
  size_t start = bytes.size();
  bytes.push_back(static_cast<uint8_t>(type));
  StoreLE<uint64_t>(&bytes, txn);
  StoreLE<uint32_t>(&bytes, payload_len);
  const auto* h = static_cast<const uint8_t*>(head);
  const auto* b = static_cast<const uint8_t*>(body);
  bytes.insert(bytes.end(), h, h + head_len);
  bytes.insert(bytes.end(), b, b + body_len);
  uint64_t crc = Checksum64(bytes.data() + start, kHeaderBytes + payload_len);
  StoreLE<uint64_t>(&bytes, crc);
  Metrics().records->Add(1);
  Metrics().bytes->Add(bytes.size() - start);
}

void Wal::AppendPageImage(uint64_t txn, PageId pid, const Page& image) {
  // The image goes straight from the frame into the log: one copy.
  std::lock_guard<std::mutex> guard(mu_);
  AppendRecord(&pages_, kPageImage, txn, &pid, sizeof(pid), image.data,
               kPageSize);
}

void Wal::AppendFreePage(uint64_t txn, PageId pid) {
  std::lock_guard<std::mutex> guard(mu_);
  AppendRecord(&pages_, kFreePage, txn, &pid, sizeof(pid));
}

Status Wal::CommitMvccUpdate(uint64_t txn, uint64_t commit_ts,
                             const std::vector<std::pair<uint64_t, int32_t>>&
                                 updates) {
  // Payload: [u64 commit_ts][u32 count] + count x [u64 packed_oid][i32 v].
  std::vector<uint8_t> payload;
  payload.reserve(12 + updates.size() * 12);
  StoreLE<uint64_t>(&payload, commit_ts);
  StoreLE<uint32_t>(&payload, static_cast<uint32_t>(updates.size()));
  for (const auto& [oid, value] : updates) {
    StoreLE<uint64_t>(&payload, oid);
    StoreLE<int32_t>(&payload, value);
  }
  TraceSpan span("wal_commit", "wal");
  span.SetArg("txn", txn);
  // Record and commit in one hold: a fold's AppendMvccApplied may truncate
  // the MVCC log between two holds, which would drop the record and leave
  // a durable commit that redoes nothing.
  std::lock_guard<std::mutex> guard(mu_);
  AppendRecord(&mvcc_, kMvccUpdate, txn, payload.data(),
               static_cast<uint32_t>(payload.size()));
  return CommitLocked(&mvcc_, txn);
}

Status Wal::Sync(Log* log) {
  FaultInjector* fi = disk_->fault_injector();
  Status torn = fi->MaybeCrash("wal.sync.torn");
  if (!torn.ok()) {
    // The device persisted part of the tail before dying. Cut roughly in
    // half — always making progress, and for multi-record tails always
    // landing inside a record so recovery must checksum-reject it.
    log->durable += (log->bytes.size() - log->durable + 1) / 2;
    return torn;
  }
  log->durable = log->bytes.size();
  Metrics().syncs->Add(1);
  return Status::OK();
}

Status Wal::Commit(uint64_t txn) {
  // The span opens before the mutex, so wal_mu_ queueing is charged to
  // the request that paid it — under the trace id it inherited from the
  // worker's ScopedTraceId.
  TraceSpan span("wal_commit", "wal");
  span.SetArg("txn", txn);
  std::lock_guard<std::mutex> guard(mu_);
  return CommitLocked(&pages_, txn);
}

Status Wal::CommitLocked(Log* log, uint64_t txn) {
  FaultInjector* fi = disk_->fault_injector();
  AppendRecord(log, kCommit, txn, nullptr, 0);
  OBJREP_RETURN_NOT_OK(fi->MaybeCrash("wal.commit.before_sync"));
  OBJREP_RETURN_NOT_OK(Sync(log));  // <- the commit point
  ++committed_txns_;
  ++log->open_applies;
  Metrics().commits->Add(1);
  return fi->MaybeCrash("wal.commit.after_sync");
}

Status Wal::AppendApplied(uint64_t txn) {
  TraceSpan span("wal_applied", "wal");
  span.SetArg("txn", txn);
  std::lock_guard<std::mutex> guard(mu_);
  return AppliedLocked(&pages_, txn);
}

Status Wal::AppendMvccApplied(uint64_t txn) {
  TraceSpan span("wal_applied", "wal");
  span.SetArg("txn", txn);
  std::lock_guard<std::mutex> guard(mu_);
  return AppliedLocked(&mvcc_, txn);
}

Status Wal::AppliedLocked(Log* log, uint64_t txn) {
  FaultInjector* fi = disk_->fault_injector();
  AppendRecord(log, kApplied, txn, nullptr, 0);
  OBJREP_RETURN_NOT_OK(fi->MaybeCrash("wal.applied.before_sync"));
  OBJREP_RETURN_NOT_OK(Sync(log));
  OBJREP_CHECK_MSG(log->open_applies > 0,
                   "applied record without open commit");
  if (--log->open_applies == 0) {
    // Every committed transaction of this log is written through: the
    // whole log is redo-dead. Truncating here is the (free) checkpoint.
    log->bytes.clear();
    log->durable = 0;
  }
  return Status::OK();
}

Status Wal::Recover(WalRecoveryStats* stats,
                    std::vector<WalMvccRedo>* mvcc_redo) {
  std::lock_guard<std::mutex> guard(mu_);
  WalRecoveryStats local;
  WalRecoveryStats* st = stats != nullptr ? stats : &local;
  *st = WalRecoveryStats{};
  if (mvcc_redo != nullptr) mvcc_redo->clear();

  struct TxnRecords {
    std::vector<std::pair<PageId, const uint8_t*>> images;  // pid, image
    std::vector<PageId> frees;
    std::vector<const uint8_t*> mvcc;  // payloads of kMvccUpdate records
    bool committed = false;
    bool applied = false;
  };
  // Commit order == log order within each log (the pool serializes page
  // transactions; MVCC commits are serialized), so an insertion-ordered
  // vector with an id index is enough.
  std::vector<std::pair<uint64_t, TxnRecords>> txns;
  std::unordered_map<uint64_t, size_t> index;
  auto txn_of = [&](uint64_t id) -> TxnRecords& {
    auto it = index.find(id);
    if (it == index.end()) {
      index.emplace(id, txns.size());
      txns.emplace_back(id, TxnRecords{});
      return txns.back().second;
    }
    return txns[it->second].second;
  };

  // Parse each log's durable prefix, stopping at its first torn/corrupt
  // record: the page log first, so page transactions come first in `txns`,
  // then the MVCC log, whose records keep their commit order.
  for (const Log* log : {&pages_, &mvcc_}) {
    const uint8_t* bytes = log->bytes.data();
    size_t pos = 0;
    while (pos + kHeaderBytes + kTrailerBytes <= log->durable) {
      uint8_t type = bytes[pos];
      uint64_t txn = LoadLE<uint64_t>(bytes + pos + 1);
      uint32_t len = LoadLE<uint32_t>(bytes + pos + 9);
      if (type < kPageImage || type > kMvccUpdate) break;
      size_t rec_end = pos + kHeaderBytes + len + kTrailerBytes;
      if (rec_end > log->durable) break;  // runs past the watermark: torn
      uint64_t crc = LoadLE<uint64_t>(bytes + pos + kHeaderBytes + len);
      if (Checksum64(bytes + pos, kHeaderBytes + len) != crc) break;
      const uint8_t* payload = bytes + pos + kHeaderBytes;
      switch (static_cast<RecordType>(type)) {
        case kPageImage: {
          OBJREP_CHECK_MSG(len == 4 + kPageSize, "bad page-image record");
          PageId pid = LoadLE<PageId>(payload);
          txn_of(txn).images.emplace_back(pid, payload + 4);
          break;
        }
        case kFreePage: {
          OBJREP_CHECK_MSG(len == 4, "bad free-page record");
          txn_of(txn).frees.push_back(LoadLE<PageId>(payload));
          break;
        }
        case kCommit:
          txn_of(txn).committed = true;
          break;
        case kApplied:
          txn_of(txn).applied = true;
          break;
        case kMvccUpdate: {
          OBJREP_CHECK_MSG(len >= 12, "bad mvcc-update record");
          uint32_t count = LoadLE<uint32_t>(payload + 8);
          OBJREP_CHECK_MSG(len == 12 + count * 12ull,
                           "bad mvcc-update record");
          txn_of(txn).mvcc.push_back(payload);
          break;
        }
      }
      pos = rec_end;
    }
    st->torn_bytes += log->durable - pos;
  }

  // Redo committed-but-unapplied transactions in log order. Page image
  // rewrites are idempotent; frees are re-applied idempotently because a
  // crash can land between the individual frees of one transaction.
  for (const auto& [id, recs] : txns) {
    (void)id;
    if (!recs.committed) continue;  // never reached the commit point: lost
    ++st->txns_seen;
    if (recs.applied) continue;
    ++st->txns_redone;
    for (const auto& [pid, image] : recs.images) {
      Page img;
      std::memcpy(img.data, image, kPageSize);
      disk_->WritePageRaw(pid, img);
      ++st->pages_redone;
    }
    for (PageId pid : recs.frees) {
      if (disk_->TryFreePage(pid)) ++st->frees_redone;
    }
    // Logical MVCC records are not page images; hand them back for the
    // objstore layer to replay through the table layer (absolute values,
    // so the replay is idempotent).
    for (const uint8_t* payload : recs.mvcc) {
      if (mvcc_redo == nullptr) break;
      WalMvccRedo redo;
      redo.txn = id;
      redo.commit_ts = LoadLE<uint64_t>(payload);
      uint32_t count = LoadLE<uint32_t>(payload + 8);
      redo.updates.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        const uint8_t* p = payload + 12 + i * 12ull;
        redo.updates.emplace_back(LoadLE<uint64_t>(p),
                                  LoadLE<int32_t>(p + 8));
      }
      mvcc_redo->push_back(std::move(redo));
    }
  }
  Metrics().recoveries->Add(1);
  Metrics().txns_redone->Add(st->txns_redone);
  Metrics().pages_redone->Add(st->pages_redone);
  return Status::OK();
}

void Wal::Reset() {
  std::lock_guard<std::mutex> guard(mu_);
  pages_ = Log{};
  mvcc_ = Log{};
  committed_txns_ = 0;
}

}  // namespace objrep
