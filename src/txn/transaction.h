#ifndef PGLO_TXN_TRANSACTION_H_
#define PGLO_TXN_TRANSACTION_H_

#include <atomic>
#include <functional>
#include <vector>

#include "common/status.h"
#include "txn/snapshot.h"
#include "txn/xid.h"

namespace pglo {

class TxnManager;

/// A unit of atomic work. Obtained from TxnManager::Begin (or BeginAsOf for
/// read-only time travel); finished with Commit or Abort exactly once.
///
/// A transaction starts with a snapshot and no XID. Its first write calls
/// AssignXid; reads never do, so a transaction that only reads ends
/// without touching the commit log (DESIGN.md §13). Writes stamp new tuple
/// versions with the XID; they become visible to others only after Commit
/// durably appends to the commit log. Abort costs nothing on the data
/// pages — the versions simply remain stamped with an aborted XID and are
/// invisible forever.
class Transaction {
 public:
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// The XID, or kInvalidXid until the transaction's first write.
  Xid xid() const { return xid_; }
  const Snapshot& snapshot() const { return snapshot_; }
  bool read_only() const { return snapshot_.historical(); }
  TxnState state() const { return state_; }
  bool active() const { return state_ == TxnState::kInProgress; }

  /// The XID a write stamps, assigned on first call: allocated, recorded
  /// in progress in the commit log (so a concurrent updater sees a live
  /// deleter, not an unknown one — first updater wins), made the
  /// snapshot's own XID, and published to the cell set by PublishXidTo.
  /// Every path that writes — heap tuples, u-file and p-file bytes — calls
  /// this before its first change, which is what makes Commit force.
  Xid AssignXid();

  /// Where AssignXid publishes the XID (a backend's activity row). Null =
  /// nowhere.
  void PublishXidTo(std::atomic<uint64_t>* cell) { xid_cell_ = cell; }

  /// Registers a callback run at the end of the transaction; `committed`
  /// tells the callback which way it ended. Used for temporary large object
  /// garbage collection (§5) and descriptor cleanup.
  void OnFinish(std::function<void(bool committed)> cb) {
    finish_callbacks_.push_back(std::move(cb));
  }

 private:
  friend class TxnManager;
  Transaction(TxnManager* manager, Snapshot snapshot)
      : manager_(manager), snapshot_(snapshot) {}

  TxnManager* manager_;
  Xid xid_ = kInvalidXid;
  Snapshot snapshot_;
  TxnState state_ = TxnState::kInProgress;
  std::atomic<uint64_t>* xid_cell_ = nullptr;
  std::vector<std::function<void(bool)>> finish_callbacks_;
};

}  // namespace pglo

#endif  // PGLO_TXN_TRANSACTION_H_
