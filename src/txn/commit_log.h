#ifndef PGLO_TXN_COMMIT_LOG_H_
#define PGLO_TXN_COMMIT_LOG_H_

#include <atomic>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/wait_event.h"
#include "txn/xid.h"

namespace pglo {

class FaultInjector;

/// What the commit log knows about one XID.
struct XidStatus {
  TxnState state;
  CommitTime commit_time;  ///< kInvalidCommitTime unless committed
};

/// Persistent transaction status log.
///
/// POSTGRES's no-overwrite storage system needs no undo/redo log: a tuple's
/// visibility is decided by looking up its xmin/xmax in this log. Commit is
/// therefore a single durable append here (after forcing the transaction's
/// dirty pages), and abort requires no data-page work at all.
///
/// The log is an append-only host file of fixed-size records, each CRC
/// protected; it is replayed into memory at open. A transaction with no
/// record (e.g. one cut off by a crash) is treated as aborted.
///
/// Thread-safe, with the durability syscall kept OFF the hot mutex: `mu_`
/// serializes appends and protects the in-memory map (visibility checks hit
/// Resolve on every tuple), while the fdatasync that makes a record durable
/// runs afterwards under a separate `sync_mu_`. Because
/// fdatasync covers the whole file, a committer first checks whether a later
/// caller's sync already reached its append ("piggybacking") and skips the
/// syscall if so. Consequences, documented in DESIGN.md §13:
///   - other backends never block on a ~100µs+ fsync just to check txn
///     status — the syscall overlaps their work;
///   - a commit becomes VISIBLE (in-memory state) slightly before it is
///     durable, but RecordCommit does not RETURN until it is durable, and
///     any reader that goes on to commit appends after it — so the reader's
///     own sync covers it and no durable state can depend on a lost commit;
///   - in a single stream the piggyback check never fires: every commit
///     append syncs itself, 1:1, and abort appends never sync (the next
///     commit's fdatasync covers them).
class CommitLog {
 public:
  CommitLog() = default;
  ~CommitLog();
  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  /// Opens (creating if necessary) the log at `path` and replays it.
  Status Open(const std::string& path);
  Status Close();

  /// Durably records every xid as committed in one append — N records, one
  /// pwrite, one fdatasync — at consecutive commit-time ticks, and returns
  /// the first: xids[i] commits at the returned tick + i. The caller must
  /// have forced every member's pages first. A batch torn by a crash keeps
  /// a prefix of whole records, which replay reads as a committed prefix.
  Result<CommitTime> RecordCommit(const std::vector<Xid>& xids);

  /// Records `xid` as aborted, without forcing the record: a lost or torn
  /// abort record reads as aborted anyway, and the next commit's fdatasync
  /// covers the file.
  Status RecordAbort(Xid xid);

  /// Notes `xid` as in progress (memory only — a crash forgets it, which
  /// correctly demotes it to aborted).
  void RecordBegin(Xid xid) {
    WaitLockGuard lock(mu_, wp_mutex_);
    entries_[xid] = XidStatus{TxnState::kInProgress, kInvalidCommitTime};
  }

  /// Status of `xid`. Unknown transactions are reported kAborted — exactly
  /// the crash-recovery rule that makes no-overwrite storage atomic.
  TxnState GetState(Xid xid) const;

  /// State and commit time of `xid` in one `mu_` acquisition — the
  /// visibility hot path (Snapshot, Vacuum) resolves each XID with this.
  XidStatus Resolve(Xid xid) const;

  /// Current value of the commit-time counter (the tick of the most recent
  /// commit). Snapshots taken at this value see all committed data.
  CommitTime Now() const {
    WaitLockGuard lock(mu_, wp_mutex_);
    return next_commit_time_ - 1;
  }

  /// Highest XID that has any record; used to restart the XID allocator.
  Xid MaxRecordedXid() const {
    WaitLockGuard lock(mu_, wp_mutex_);
    return max_xid_;
  }

  /// Number of fdatasync calls issued on the log — the figure of merit
  /// group commit improves (N concurrent commits, one sync).
  uint64_t fsync_count() const {
    return fsyncs_.load(std::memory_order_relaxed);
  }

  /// Record size on disk, exposed so crash tests can place truncation
  /// points exactly on and inside record edges.
  static size_t RecordSize();

  /// Installs the crash/torn-append hooks. Null detaches.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// When false, AppendRecord skips fdatasync — a deliberately broken
  /// configuration (the regression the crash harness must catch): records
  /// appended since the last sync are registered with the fault injector
  /// as volatile and vanish at the next simulated power failure.
  void SetSynchronous(bool synchronous) { synchronous_ = synchronous; }

  /// Wait instrumentation (DESIGN.md §14): acquisitions of `mu_` report
  /// under `clog.mutex` (the visibility hot path), and the sync side —
  /// `sync_mu_` plus the fdatasync syscall itself — under `clog.fsync`.
  /// Configuration-time only.
  void BindWaits(const WaitStatsTable* waits) {
    if (waits == nullptr) return;
    wp_mutex_ = waits->point(WaitEvent::kClogMutex);
    wp_fsync_ = waits->point(WaitEvent::kClogFsync);
  }

 private:
  /// Appends `nbytes` of already-encoded records (no sync — see SyncTo).
  /// Assumes mu_ is held. `*end_out` receives the file size after the
  /// append, the durability target to pass to SyncTo.
  Status AppendEncodedLocked(const uint8_t* buf, size_t nbytes,
                             uint64_t* end_out);

  /// Makes the log durable through byte `target`, without holding mu_.
  /// Skips the fdatasync when a concurrent caller's sync already covered
  /// `target`; no-op when the log is configured non-synchronous.
  Status SyncTo(uint64_t target);

  mutable std::mutex mu_;  ///< entries_, counters, and file appends
  std::mutex sync_mu_;     ///< serializes fdatasync; never nests inside mu_
  const WaitPoint* wp_mutex_ = nullptr;
  const WaitPoint* wp_fsync_ = nullptr;
  int fd_ = -1;
  std::string path_;
  std::unordered_map<Xid, XidStatus> entries_;
  CommitTime next_commit_time_ = 1;
  Xid max_xid_ = kInvalidXid;
  FaultInjector* injector_ = nullptr;
  bool synchronous_ = true;
  std::atomic<uint64_t> fsyncs_{0};
  /// File size after the latest append (advances under mu_).
  std::atomic<uint64_t> appended_size_{0};
  /// Bytes known durable (fsynced) on disk (advances under sync_mu_).
  std::atomic<uint64_t> synced_size_{0};
};

}  // namespace pglo

#endif  // PGLO_TXN_COMMIT_LOG_H_
