// Page-level write-ahead commit log (DESIGN.md §10).
//
// Modeled on an append-only commit log: fixed-header records with a
// trailing FNV-1a checksum, appended to a byte buffer with an explicit
// durable watermark. Everything past the watermark is lost in a crash;
// Sync() advances it (and is where the `wal.sync.torn` crash point can
// leave a half-record durable, which recovery must detect and discard).
//
// Redo-only protocol — there are no before-images because the buffer pool
// runs the companion no-steal policy (txn-dirtied frames hold an extra pin
// until commit, so uncommitted data never reaches disk):
//
//   BeginTxn                       (BufferPool, one writer at a time)
//     ... strategy mutates pages through PageGuards ...
//   CommitTxn:
//     append kPageImage for every touched page, kFreePage for every
//       deferred free, then kCommit; Sync()           <- commit point
//     write-through: WritePage every image to the volume, apply frees
//     append kApplied; Sync()     <- marks redo unnecessary
//
// Recovery replays, in log order, every transaction whose kCommit record
// is durable and intact but whose kApplied record is not: page images are
// rewritten (idempotent) and frees re-applied (idempotently — a crash can
// land between individual frees). Transactions without a durable commit
// record are ignored; the no-steal pool guarantees none of their pages hit
// the volume. Once every committed page transaction is applied the page log
// is dead weight, so AppendApplied truncates it — the checkpoint is free
// because apply is write-through.
//
// MVCC commits (DESIGN.md §15) ride the same framing with a *logical*
// record, kMvccUpdate: absolute (oid, ret1) pairs plus the commit
// timestamp. Unlike page transactions, an MVCC commit does not write base
// pages through — the version only lands on base pages at the next fold —
// so its kApplied is deferred until FoldMvcc (AppendMvccApplied). MVCC
// records therefore go to a second byte log with its own durable watermark
// and open-apply count: nothing folds while serving, and one shared log
// would hold every page image logged after the oldest unfolded commit
// (each DFSCACHE install's included). Each log truncates when its own
// committed transactions are all applied. A sync makes one log durable,
// and a torn sync cuts only that log. Recover() parses both, redoes the
// page log's transactions, and hands the committed-but-unapplied MVCC
// records back to the caller in log order (== commit-timestamp order;
// commits are serialized); the objstore layer replays them through the
// table layer, which is idempotent because the values are absolute.
//
// Thread safety: all public methods lock one internal mutex. The
// BufferPool serializes *page* transactions on wal_mu_, but MVCC commits
// (and the cache-install pool transactions that run during lock-free
// snapshot retrieves) interleave with them. Records of different
// transactions of one log may interleave; framing is per-record and
// recovery groups by transaction id, so interleaving is harmless.
#ifndef OBJREP_STORAGE_WAL_H_
#define OBJREP_STORAGE_WAL_H_

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "storage/page.h"
#include "util/status.h"

namespace objrep {

class DiskManager;
class FaultInjector;

/// Outcome of Wal::Recover, for reports and test assertions.
struct WalRecoveryStats {
  uint64_t txns_seen = 0;      ///< committed txns found in the durable log
  uint64_t txns_redone = 0;    ///< committed-but-unapplied txns replayed
  uint64_t pages_redone = 0;   ///< page images rewritten to the volume
  uint64_t frees_redone = 0;   ///< deferred frees re-applied
  uint64_t torn_bytes = 0;     ///< durable bytes discarded as torn tail
};

/// One committed-but-unapplied MVCC commit found by Recover, in log order.
struct WalMvccRedo {
  uint64_t txn = 0;
  uint64_t commit_ts = 0;
  /// Absolute new ret1 per packed child OID.
  std::vector<std::pair<uint64_t, int32_t>> updates;
};

/// In-memory write-ahead commit log with an explicit durable watermark.
class Wal {
 public:
  explicit Wal(DiskManager* disk) : disk_(disk) {}
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Starts a new transaction; returns its id (monotonic from 1).
  uint64_t Begin();

  /// Appends the after-image of `pid` for `txn`. Not yet durable.
  void AppendPageImage(uint64_t txn, PageId pid, const Page& image);

  /// Appends a deferred free of `pid` for `txn`. Not yet durable.
  void AppendFreePage(uint64_t txn, PageId pid);

  /// Appends the logical MVCC-commit record for `txn` — the commit
  /// timestamp and the absolute (packed OID, new ret1) pairs — and commits
  /// it as Commit(txn) does, in one hold of the log. The matching
  /// AppendApplied is deferred to the fold that writes the versions onto
  /// base pages.
  Status CommitMvccUpdate(uint64_t txn, uint64_t commit_ts,
                          const std::vector<std::pair<uint64_t, int32_t>>&
                              updates);

  /// Appends the commit record and makes the log durable — the commit
  /// point. Crash points: wal.commit.before_sync / wal.sync.torn /
  /// wal.commit.after_sync.
  Status Commit(uint64_t txn);

  /// Appends the applied record of page transaction `txn` (fully written
  /// through) and syncs the page log. When no committed page transaction
  /// remains unapplied, truncates the page log, whatever MVCC commits are
  /// still open. Crash point: wal.applied.before_sync.
  Status AppendApplied(uint64_t txn);

  /// AppendApplied for an MVCC commit, once a fold has written it onto
  /// base pages: truncates the MVCC log when no MVCC commit remains
  /// unapplied. Same crash point.
  Status AppendMvccApplied(uint64_t txn);

  /// Redo pass over the durable prefix: validates record framing +
  /// checksums (stopping at the first torn/corrupt record), then replays
  /// committed-but-unapplied transactions in log order onto the volume.
  /// Call with the injector's crash state already cleared. MVCC records of
  /// committed-but-unapplied transactions are not replayed here (they are
  /// logical, not page images); they are appended to `mvcc_redo` in log
  /// order for the objstore layer to re-apply through the table layer.
  Status Recover(WalRecoveryStats* stats,
                 std::vector<WalMvccRedo>* mvcc_redo = nullptr);

  /// Drops all log state (post-recovery, or tests). Txn ids keep rising.
  void Reset();

  /// Bytes currently held by both logs (durable or not).
  uint64_t size_bytes() const {
    std::lock_guard<std::mutex> guard(mu_);
    return pages_.bytes.size() + mvcc_.bytes.size();
  }
  uint64_t durable_bytes() const {
    std::lock_guard<std::mutex> guard(mu_);
    return pages_.durable + mvcc_.durable;
  }
  uint64_t committed_txns() const {
    std::lock_guard<std::mutex> guard(mu_);
    return committed_txns_;
  }

 private:
  enum RecordType : uint8_t {
    kPageImage = 1,
    kFreePage = 2,
    kCommit = 3,
    kApplied = 4,
    kMvccUpdate = 5,
  };

  /// One append-only byte log with its own durable watermark.
  struct Log {
    std::vector<uint8_t> bytes;
    uint64_t durable = 0;       ///< bytes[0, durable) survives a crash
    uint64_t open_applies = 0;  ///< committed txns whose kApplied isn't logged
  };

  /// Commit with mu_ held: appends the commit record to `log` and syncs it.
  Status CommitLocked(Log* log, uint64_t txn);
  /// Appends the applied record to `log`, syncs it, and truncates it once
  /// none of its committed transactions is left unapplied.
  Status AppliedLocked(Log* log, uint64_t txn);
  /// Appends one framed record whose payload is `head` then `body` (either
  /// may be empty), each copied once, straight into `log`.
  void AppendRecord(Log* log, RecordType type, uint64_t txn, const void* head,
                    uint32_t head_len, const void* body = nullptr,
                    uint32_t body_len = 0);
  /// Advances `log`'s durable watermark to its end (crash points apply).
  Status Sync(Log* log);

  mutable std::mutex mu_;
  DiskManager* disk_;
  Log pages_;  ///< page transactions: images, frees, commits, applies
  Log mvcc_;   ///< MVCC commits and their fold-time applies
  uint64_t next_txn_ = 1;
  uint64_t committed_txns_ = 0;
};

}  // namespace objrep

#endif  // OBJREP_STORAGE_WAL_H_
