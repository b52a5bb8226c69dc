#ifndef PGLO_TXN_TXN_MANAGER_H_
#define PGLO_TXN_TXN_MANAGER_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "obs/event_log.h"
#include "obs/wait_event.h"
#include "storage/buffer_pool.h"
#include "txn/commit_log.h"
#include "txn/transaction.h"

namespace pglo {

/// Allocates XIDs and drives the commit protocol.
///
/// Commit protocol (force-at-commit, no WAL — the POSTGRES storage system):
///   1. flush every dirty buffer (the transaction's new tuple versions
///      reach stable storage),
///   2. durably append the commit record.
/// A crash between the steps leaves the XID unrecorded, which the commit
/// log reports as aborted, so the flushed-but-uncommitted versions are
/// invisible: atomicity without undo.
///
/// Only a transaction that wrote pays for that protocol. XIDs are assigned
/// lazily, at the first write (Transaction::AssignXid); a transaction that
/// ends without one has nothing to force and nothing to record, so its
/// Commit and Abort touch neither the pool, the commit log, nor the
/// group-commit queue.
///
/// Thread-safe: backends (Sessions) begin, commit, and abort concurrently.
/// Every writing commit goes through one group-commit queue: the force
/// policy flushes the whole pool, so there is nothing to overlap, and one
/// leader flushes once and appends every waiting committer's record in a
/// single pwrite + fdatasync. An uncontended stream forms batches of one
/// whose leader never waits to gather, so its force and fdatasync sequence
/// is one flush and one record sync per commit.
class TxnManager {
 public:
  TxnManager(CommitLog* clog, BufferPool* pool)
      : clog_(clog), pool_(pool) {}
  ~TxnManager();
  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Restores the XID allocator after reopening a database.
  void RestoreNextXid() {
    std::lock_guard<std::mutex> lock(mu_);
    Xid max = clog_->MaxRecordedXid();
    if (max >= next_xid_) next_xid_ = max + 1;
  }

  /// Persists the XID high-water mark to `path`, reserved in ranges: the
  /// file holds a ceiling every assigned XID is below, rewritten (without
  /// fsync) only when assignment reaches it, and a slack is added at open.
  /// Without this, an XID handed to a transaction that crashed before
  /// writing any commit-log record could be reissued — and the crashed
  /// transaction's tuples would look like the new transaction's own
  /// writes. DESIGN.md §11 gives the crash argument.
  Status OpenXidFile(const std::string& path);

  /// Starts a read-write transaction with a "current" snapshot and no XID
  /// (the first write assigns one).
  Transaction* Begin();

  /// Starts a read-only time-travel transaction whose reads observe the
  /// database exactly as committed at tick `as_of`.
  Transaction* BeginAsOf(CommitTime as_of);

  /// Commits: forces dirty pages, then durably records the commit.
  /// Returns the transaction's commit time and destroys the Transaction on
  /// success. A transaction that never wrote (no XID) skips both steps and
  /// returns Now(). A pointer that is not an in-progress transaction of
  /// this manager (double commit, use after commit) is rejected without
  /// being dereferenced.
  Result<CommitTime> Commit(Transaction* txn);

  /// Aborts: appends an abort record without forcing it (nothing, for a
  /// transaction without an XID); data pages are untouched.
  Status Abort(Transaction* txn);

  /// The latest commit tick — the "now" that time-travel queries address.
  CommitTime Now() const { return clog_->Now(); }

  /// Registers an extra force-at-commit step, run after the buffer-pool
  /// flush and before the commit record. Database uses this to sync
  /// non-pool stores (the simulated UNIX file system) that hold committed
  /// large-object data. Configuration-time only.
  void AddCommitForceHook(std::function<Status()> hook) {
    force_hooks_.push_back(std::move(hook));
  }

  /// Structured-event sink for the transaction lifecycle (begin, commit,
  /// abort). Null = silent. Configuration-time only.
  void BindEventLog(EventLog* events) { events_ = events; }

  /// Wait instrumentation (DESIGN.md §14): the group-commit queue reports
  /// under `clog.group_commit.follower` (waiting out a leader's round) and
  /// `clog.group_commit.gather` (the leader's bounded refill wait).
  /// Configuration-time only.
  void BindWaits(const WaitStatsTable* waits) {
    if (waits == nullptr) return;
    wp_gc_follower_ = waits->point(WaitEvent::kGroupCommitFollower);
    wp_gc_gather_ = waits->point(WaitEvent::kGroupCommitGather);
  }

  const CommitLog& commit_log() const { return *clog_; }
  size_t active_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_.size();
  }

  /// Commit batches formed since open: leader rounds, the transactions
  /// they carried (each round one flush + one log append), and the largest
  /// round. Diff two readings to measure a window; max_batch is since open.
  struct CommitBatchStats {
    uint64_t batches = 0;
    uint64_t commits = 0;
    uint32_t max_batch = 0;
  };
  CommitBatchStats commit_batch_stats() const {
    std::lock_guard<std::mutex> lock(gc_mu_);
    return batch_stats_;
  }

 private:
  struct PendingCommit {
    Transaction* txn;
    bool done = false;
    Result<CommitTime> result{Status::Internal("commit pending")};
  };

  friend class Transaction;  // AssignXid

  Transaction* Track(const Snapshot& snapshot);
  /// Runs finish callbacks and destroys the transaction. Must NOT be
  /// called with mu_ held (callbacks reach into other subsystems).
  void Finish(Transaction* txn, bool committed);
  Xid AllocateXidLocked();
  void AssignXid(Transaction* txn);
  bool IsActive(Transaction* txn) const;
  /// The force-at-commit steps: pool flush + registered hooks.
  Status ForceAll();

  CommitLog* clog_;
  BufferPool* pool_;
  mutable std::mutex mu_;  ///< next_xid_, xid file, active_
  Xid next_xid_ = kFirstNormalXid;
  /// Every XID assigned is below this; 0 until the first assignment
  /// reserves a range in the xid file.
  Xid xid_ceiling_ = 0;
  int xid_fd_ = -1;
  std::unordered_map<Transaction*, std::unique_ptr<Transaction>> active_;
  std::vector<std::function<Status()>> force_hooks_;
  EventLog* events_ = nullptr;
  const WaitPoint* wp_gc_follower_ = nullptr;
  const WaitPoint* wp_gc_gather_ = nullptr;

  // Group-commit queue (guarded by gc_mu_): committers enqueue themselves;
  // whoever finds no leader running becomes leader and commits the whole
  // queue in one force + one batched log append.
  mutable std::mutex gc_mu_;
  std::condition_variable gc_cv_;
  std::deque<PendingCommit*> gc_queue_;
  bool gc_leader_active_ = false;
  /// Size of the previous batch (guarded by gc_mu_). The next leader
  /// gathers — briefly waits for the queue to refill to this size — before
  /// draining, so steady-state batches track the live committer count
  /// instead of collapsing to whoever raced in first.
  size_t gc_last_batch_ = 0;
  CommitBatchStats batch_stats_;  ///< guarded by gc_mu_
};

}  // namespace pglo

#endif  // PGLO_TXN_TXN_MANAGER_H_
