#include "txn/txn_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"

namespace pglo {

namespace {
constexpr Xid kXidCrashSlack = 1024;

/// Upper bound on the group-commit leader's gather wait. The ratchet in
/// CommitGrouped normally exits long before this; the cap only bites when
/// the committer population just shrank (end of a workload pass).
constexpr auto kGroupCommitGatherCap = std::chrono::microseconds(1000);
}  // namespace

TxnManager::~TxnManager() {
  if (xid_fd_ >= 0) ::close(xid_fd_);
}

Status TxnManager::OpenXidFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  xid_fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (xid_fd_ < 0) {
    return Status::IOError("cannot open xid file: " +
                           std::string(std::strerror(errno)));
  }
  uint8_t buf[4];
  if (::pread(xid_fd_, buf, sizeof(buf), 0) == sizeof(buf)) {
    Xid persisted = DecodeFixed32(buf) + kXidCrashSlack;
    if (persisted > next_xid_) next_xid_ = persisted;
  }
  return Status::OK();
}

Xid TxnManager::AllocateXidLocked() {
  Xid xid = next_xid_++;
  if (xid_fd_ >= 0 && xid >= xid_ceiling_) {
    // Reserve the next range: one pwrite per kXidCrashSlack XIDs, no
    // fsync. Every XID handed out is below the newest ceiling; should the
    // write be lost, the previous ceiling plus the slack added at open is
    // this one, so a restart still lands past every XID handed out.
    xid_ceiling_ = xid + kXidCrashSlack;
    uint8_t buf[4];
    EncodeFixed32(buf, xid_ceiling_);
    ssize_t n = ::pwrite(xid_fd_, buf, sizeof(buf), 0);
    (void)n;
  }
  return xid;
}

Xid Transaction::AssignXid() {
  if (xid_ == kInvalidXid) manager_->AssignXid(this);
  return xid_;
}

void TxnManager::AssignXid(Transaction* txn) {
  Xid xid;
  {
    std::lock_guard<std::mutex> lock(mu_);
    xid = AllocateXidLocked();
  }
  // In progress in the commit log before any tuple carries the XID: a
  // concurrent updater that meets our xmax must see a live deleter, not an
  // unknown (= aborted) one it may overwrite.
  clog_->RecordBegin(xid);
  txn->xid_ = xid;
  txn->snapshot_.my_xid_ = xid;
  if (txn->xid_cell_ != nullptr) {
    txn->xid_cell_->store(xid, std::memory_order_relaxed);
  }
}

Transaction* TxnManager::Track(const Snapshot& snapshot) {
  std::unique_ptr<Transaction> txn(new Transaction(this, snapshot));
  Transaction* raw = txn.get();
  std::lock_guard<std::mutex> lock(mu_);
  active_[raw] = std::move(txn);
  return raw;
}

bool TxnManager::IsActive(Transaction* txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Membership first: a stale pointer (double commit, use after commit)
  // must be rejected without ever dereferencing it.
  auto it = active_.find(txn);
  return it != active_.end() && it->second->active();
}

Transaction* TxnManager::Begin() {
  // No XID yet (a=0): the first write assigns one, and txn.commit /
  // txn.abort report it.
  if (events_ != nullptr) events_->Append(EventType::kTxnBegin, "", 0);
  return Track(Snapshot(clog_, kInvalidXid, clog_->Now()));
}

Transaction* TxnManager::BeginAsOf(CommitTime as_of) {
  if (events_ != nullptr) {
    events_->Append(EventType::kTxnBegin, "as-of", 0, as_of);
  }
  return Track(Snapshot(clog_, kInvalidXid, clog_->Now(), as_of));
}

void TxnManager::Finish(Transaction* txn, bool committed) {
  for (auto& cb : txn->finish_callbacks_) {
    cb(committed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  active_.erase(txn);  // destroys the Transaction
}

Status TxnManager::ForceAll() {
  // Force policy: all of this transaction's versions must be stable before
  // the commit record. Flushing everything is coarse but correct (and
  // under group commit, one flush covers the whole batch).
  PGLO_RETURN_IF_ERROR(pool_->FlushAll());
  for (auto& hook : force_hooks_) {
    PGLO_RETURN_IF_ERROR(hook());
  }
  return Status::OK();
}

Result<CommitTime> TxnManager::Commit(Transaction* txn) {
  PGLO_CHECK(txn != nullptr);
  if (!IsActive(txn)) {
    return Status::InvalidArgument("transaction already finished");
  }
  if (txn->xid() == kInvalidXid) {
    // Nothing written: nothing to force, nothing to record. The snapshot
    // was all the transaction had, so it "commits" at the current tick.
    CommitTime now = clog_->Now();
    if (events_ != nullptr) {
      events_->Append(EventType::kTxnCommit, "read-only", 0, now);
    }
    txn->state_ = TxnState::kCommitted;
    Finish(txn, /*committed=*/true);
    return now;
  }
  return group_commit_ ? CommitGrouped(txn) : CommitSingle(txn);
}

Result<CommitTime> TxnManager::CommitSingle(Transaction* txn) {
  WaitLockGuard commit_lock(commit_mu_, wp_commit_serialize_);
  PGLO_RETURN_IF_ERROR(ForceAll());
  PGLO_ASSIGN_OR_RETURN(CommitTime time, clog_->RecordCommit(txn->xid()));
  if (events_ != nullptr) {
    events_->Append(EventType::kTxnCommit, "", txn->xid(), time);
  }
  txn->state_ = TxnState::kCommitted;
  Finish(txn, /*committed=*/true);
  return time;
}

Result<CommitTime> TxnManager::CommitGrouped(Transaction* txn) {
  PendingCommit req{txn};
  std::unique_lock<std::mutex> lk(gc_mu_);
  gc_queue_.push_back(&req);
  gc_cv_.notify_all();  // a gathering leader may be waiting for arrivals
  // Followers wait while a leader round is in flight; the leader may
  // commit us (done) or finish a round that predates our enqueue (then we
  // take over leadership for the queue we are part of).
  if (gc_leader_active_ && !req.done) {
    WaitGuard wait(wp_gc_follower_);
    while (gc_leader_active_ && !req.done) {
      gc_cv_.wait(lk);
    }
  }
  if (req.done) return req.result;
  gc_leader_active_ = true;
  // Gather: draining the instant the first committer arrives yields
  // batches of 1–2 under load, because the other backends are still in
  // their (serialized) CPU work when the leader starts the sync path.
  // Wait — bounded — for the queue to reach the previous batch's size.
  // The ratchet self-tunes to the live committer count: an uncontended
  // stream has gc_last_batch_ <= 1 and never waits, so single-session
  // commit latency is unchanged; when the population shrinks, one capped
  // wait re-learns the smaller batch.
  if (gc_last_batch_ > 1 && gc_queue_.size() < gc_last_batch_) {
    WaitGuard wait(wp_gc_gather_);
    auto deadline = std::chrono::steady_clock::now() + kGroupCommitGatherCap;
    while (gc_queue_.size() < gc_last_batch_) {
      if (gc_cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
    }
  }
  std::vector<PendingCommit*> batch(gc_queue_.begin(), gc_queue_.end());
  gc_queue_.clear();
  group_sizes_.push_back(static_cast<uint32_t>(batch.size()));
  gc_last_batch_ = batch.size();
  lk.unlock();

  // One force pass makes every batch member's pages stable, then one
  // batched append commits them all at consecutive ticks.
  Status force = ForceAll();
  std::vector<CommitTime> times;
  Status append = force;
  if (force.ok()) {
    std::vector<Xid> xids;
    xids.reserve(batch.size());
    for (PendingCommit* p : batch) xids.push_back(p->txn->xid());
    append = clog_->RecordCommitBatch(xids, &times).status();
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    PendingCommit* p = batch[i];
    if (append.ok()) {
      if (events_ != nullptr) {
        events_->Append(EventType::kTxnCommit, "group", p->txn->xid(),
                        times[i]);
      }
      p->txn->state_ = TxnState::kCommitted;
      Finish(p->txn, /*committed=*/true);
      p->result = times[i];
    } else {
      // The batch failed as a unit (flush or append error). Every member
      // stays active; callers may retry or abort individually.
      p->result = append;
    }
  }

  lk.lock();
  gc_leader_active_ = false;
  Result<CommitTime> my_result = req.result;
  for (PendingCommit* p : batch) p->done = true;
  gc_cv_.notify_all();
  return my_result;
}

Status TxnManager::Abort(Transaction* txn) {
  PGLO_CHECK(txn != nullptr);
  if (!IsActive(txn)) {
    return Status::InvalidArgument("transaction already finished");
  }
  // Without an XID no tuple carries the transaction, and no record is
  // needed to say so.
  if (txn->xid() != kInvalidXid) {
    PGLO_RETURN_IF_ERROR(clog_->RecordAbort(txn->xid()));
  }
  if (events_ != nullptr) events_->Append(EventType::kTxnAbort, "", txn->xid());
  txn->state_ = TxnState::kAborted;
  Finish(txn, /*committed=*/false);
  return Status::OK();
}

}  // namespace pglo
