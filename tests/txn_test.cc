#include <gtest/gtest.h>

#include <cstdio>

#include "common/bytes.h"
#include "smgr/mm_smgr.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"
#include "txn/commit_log.h"
#include "txn/snapshot.h"
#include "txn/txn_manager.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

class CommitLogTest : public ::testing::Test {
 protected:
  TempDir dir_;
};

TEST_F(CommitLogTest, CommitAssignsIncreasingTimes) {
  CommitLog clog;
  ASSERT_OK(clog.Open(dir_.Sub("clog")));
  ASSERT_OK_AND_ASSIGN(CommitTime t1, clog.RecordCommit(2));
  ASSERT_OK_AND_ASSIGN(CommitTime t2, clog.RecordCommit(3));
  EXPECT_LT(t1, t2);
  EXPECT_EQ(clog.Now(), t2);
  EXPECT_EQ(clog.GetState(2), TxnState::kCommitted);
  EXPECT_EQ(clog.Resolve(2).commit_time, t1);
}

TEST_F(CommitLogTest, AbortRecorded) {
  CommitLog clog;
  ASSERT_OK(clog.Open(dir_.Sub("clog")));
  ASSERT_OK(clog.RecordAbort(5));
  EXPECT_EQ(clog.GetState(5), TxnState::kAborted);
  EXPECT_EQ(clog.Resolve(5).commit_time, kInvalidCommitTime);
}

TEST_F(CommitLogTest, UnknownXidIsAborted) {
  CommitLog clog;
  ASSERT_OK(clog.Open(dir_.Sub("clog")));
  EXPECT_EQ(clog.GetState(999), TxnState::kAborted);
}

TEST_F(CommitLogTest, BootstrapAlwaysCommitted) {
  CommitLog clog;
  ASSERT_OK(clog.Open(dir_.Sub("clog")));
  EXPECT_EQ(clog.GetState(kBootstrapXid), TxnState::kCommitted);
}

TEST_F(CommitLogTest, ReplayAfterReopen) {
  {
    CommitLog clog;
    ASSERT_OK(clog.Open(dir_.Sub("clog")));
    ASSERT_OK(clog.RecordCommit(2).status());
    ASSERT_OK(clog.RecordAbort(3));
    ASSERT_OK(clog.RecordCommit(4).status());
  }
  CommitLog clog;
  ASSERT_OK(clog.Open(dir_.Sub("clog")));
  EXPECT_EQ(clog.GetState(2), TxnState::kCommitted);
  EXPECT_EQ(clog.GetState(3), TxnState::kAborted);
  EXPECT_EQ(clog.GetState(4), TxnState::kCommitted);
  EXPECT_EQ(clog.MaxRecordedXid(), 4u);
  // New commits continue after the replayed high-water mark.
  ASSERT_OK_AND_ASSIGN(CommitTime t, clog.RecordCommit(5));
  EXPECT_GT(t, clog.Resolve(4).commit_time);
}

TEST_F(CommitLogTest, TruncatesTornTail) {
  {
    CommitLog clog;
    ASSERT_OK(clog.Open(dir_.Sub("clog")));
    ASSERT_OK(clog.RecordCommit(2).status());
  }
  // Append garbage simulating a torn write.
  FILE* f = fopen(dir_.Sub("clog").c_str(), "ab");
  ASSERT_NE(f, nullptr);
  fwrite("garbage", 1, 7, f);
  fclose(f);
  CommitLog clog;
  ASSERT_OK(clog.Open(dir_.Sub("clog")));
  EXPECT_EQ(clog.GetState(2), TxnState::kCommitted);
  ASSERT_OK(clog.RecordCommit(3).status());
}

class TxnTest : public ::testing::Test {
 protected:
  TxnTest() : pool_(&smgrs_, 16) {
    EXPECT_OK(smgrs_.Register(0, std::make_unique<MainMemorySmgr>(nullptr)));
    EXPECT_OK(clog_.Open(dir_.Sub("clog")));
    txns_ = std::make_unique<TxnManager>(&clog_, &pool_);
  }

  TempDir dir_;
  SmgrRegistry smgrs_;
  BufferPool pool_;
  CommitLog clog_;
  std::unique_ptr<TxnManager> txns_;
};

TEST_F(TxnTest, BeginCommitLifecycle) {
  Transaction* txn = txns_->Begin();
  EXPECT_TRUE(txn->active());
  // No XID until the first write; the write path assigns it in progress.
  EXPECT_EQ(txn->xid(), kInvalidXid);
  Xid xid = txn->AssignXid();
  EXPECT_NE(xid, kInvalidXid);
  EXPECT_EQ(txn->xid(), xid);
  EXPECT_EQ(txn->AssignXid(), xid);  // assigned once
  EXPECT_EQ(clog_.GetState(xid), TxnState::kInProgress);
  ASSERT_OK(txns_->Commit(txn).status());
  EXPECT_EQ(clog_.GetState(xid), TxnState::kCommitted);
  EXPECT_EQ(txns_->active_count(), 0u);
}

TEST_F(TxnTest, AbortLifecycle) {
  Transaction* txn = txns_->Begin();
  Xid xid = txn->AssignXid();
  ASSERT_OK(txns_->Abort(txn));
  EXPECT_EQ(clog_.GetState(xid), TxnState::kAborted);
}

TEST_F(TxnTest, ReadOnlyCommitAndAbortWriteNoRecord) {
  uint64_t fsyncs = clog_.fsync_count();
  CommitTime now = clog_.Now();
  Transaction* reader = txns_->Begin();
  ASSERT_OK_AND_ASSIGN(CommitTime t, txns_->Commit(reader));
  EXPECT_EQ(t, now);  // "commits" at the current tick, taking none
  reader = txns_->Begin();
  ASSERT_OK(txns_->Abort(reader));
  EXPECT_EQ(clog_.fsync_count(), fsyncs);
  EXPECT_EQ(clog_.Now(), now);
  EXPECT_EQ(clog_.MaxRecordedXid(), kInvalidXid);
  EXPECT_EQ(txns_->active_count(), 0u);
}

TEST_F(TxnTest, XidsAreAssignedInFirstWriteOrder) {
  Transaction* early = txns_->Begin();
  Transaction* late = txns_->Begin();
  Xid first = late->AssignXid();
  Xid second = early->AssignXid();
  EXPECT_LT(first, second);
  ASSERT_OK(txns_->Abort(early));
  ASSERT_OK(txns_->Abort(late));
}

TEST_F(TxnTest, FinishCallbacksFire) {
  Transaction* txn = txns_->Begin();
  bool fired = false, committed = false;
  txn->OnFinish([&](bool c) {
    fired = true;
    committed = c;
  });
  ASSERT_OK(txns_->Commit(txn).status());
  EXPECT_TRUE(fired);
  EXPECT_TRUE(committed);

  txn = txns_->Begin();
  fired = false;
  txn->OnFinish([&](bool c) {
    fired = true;
    committed = c;
  });
  ASSERT_OK(txns_->Abort(txn));
  EXPECT_TRUE(fired);
  EXPECT_FALSE(committed);
}

TEST_F(TxnTest, DoubleCommitRejected) {
  Transaction* txn = txns_->Begin();
  ASSERT_OK(txns_->Commit(txn).status());
  // txn pointer is dead now; use a fresh one for abort-after-commit check.
  Transaction* txn2 = txns_->Begin();
  ASSERT_OK(txns_->Abort(txn2));
}

TEST_F(TxnTest, SnapshotSeesOwnWrites) {
  Transaction* txn = txns_->Begin();
  Xid xid = txn->AssignXid();
  EXPECT_EQ(txn->snapshot().xid(), xid);
  EXPECT_TRUE(txn->snapshot().IsVisible(xid, kInvalidXid));
  EXPECT_FALSE(txn->snapshot().IsVisible(xid, xid));
  ASSERT_OK(txns_->Abort(txn));
}

TEST_F(TxnTest, SnapshotHidesConcurrentUncommitted) {
  Transaction* t1 = txns_->Begin();
  Transaction* t2 = txns_->Begin();
  EXPECT_FALSE(t2->snapshot().IsVisible(t1->AssignXid(), kInvalidXid));
  ASSERT_OK(txns_->Commit(t1).status());
  ASSERT_OK(txns_->Abort(t2));
}

TEST_F(TxnTest, SnapshotIsolation) {
  Transaction* t1 = txns_->Begin();
  Xid x1 = t1->AssignXid();
  Transaction* t2 = txns_->Begin();  // snapshot taken before t1 commits
  ASSERT_OK(txns_->Commit(t1).status());
  // t2's snapshot predates t1's commit: invisible.
  EXPECT_FALSE(t2->snapshot().IsVisible(x1, kInvalidXid));
  ASSERT_OK(txns_->Abort(t2));
  // A new transaction sees it.
  Transaction* t3 = txns_->Begin();
  EXPECT_TRUE(t3->snapshot().IsVisible(x1, kInvalidXid));
  ASSERT_OK(txns_->Abort(t3));
}

TEST_F(TxnTest, TimeTravelSnapshot) {
  Transaction* t1 = txns_->Begin();
  Xid x1 = t1->AssignXid();
  ASSERT_OK_AND_ASSIGN(CommitTime time1, txns_->Commit(t1));

  Transaction* t2 = txns_->Begin();
  Xid x2 = t2->AssignXid();
  ASSERT_OK(txns_->Commit(t2).status());

  // As of time1: x1 visible, x2 not.
  Transaction* historical = txns_->BeginAsOf(time1);
  EXPECT_TRUE(historical->read_only());
  EXPECT_TRUE(historical->snapshot().IsVisible(x1, kInvalidXid));
  EXPECT_FALSE(historical->snapshot().IsVisible(x2, kInvalidXid));
  // A deletion by x2 is not yet visible at time1: tuple still alive.
  EXPECT_TRUE(historical->snapshot().IsVisible(x1, x2));
  ASSERT_OK(txns_->Abort(historical));
}

TEST_F(TxnTest, HistoricalSnapshotIgnoresOwnXid) {
  Transaction* t = txns_->BeginAsOf(0);
  EXPECT_FALSE(t->snapshot().IsVisible(t->AssignXid(), kInvalidXid));
  ASSERT_OK(txns_->Abort(t));
}

TEST_F(TxnTest, AbortedInserterNeverVisible) {
  Transaction* t1 = txns_->Begin();
  Xid x1 = t1->AssignXid();
  ASSERT_OK(txns_->Abort(t1));
  Transaction* t2 = txns_->Begin();
  EXPECT_FALSE(t2->snapshot().IsVisible(x1, kInvalidXid));
  ASSERT_OK(txns_->Abort(t2));
}

TEST_F(TxnTest, AbortedDeleterLeavesTupleAlive) {
  Transaction* t1 = txns_->Begin();
  Xid x1 = t1->AssignXid();
  ASSERT_OK(txns_->Commit(t1).status());
  Transaction* t2 = txns_->Begin();
  Xid x2 = t2->AssignXid();
  ASSERT_OK(txns_->Abort(t2));
  Transaction* t3 = txns_->Begin();
  EXPECT_TRUE(t3->snapshot().IsVisible(x1, x2));  // deleter aborted
  ASSERT_OK(txns_->Abort(t3));
}

TEST_F(TxnTest, RestoreNextXidAfterReplay) {
  Transaction* t = txns_->Begin();
  Xid last = t->AssignXid();
  ASSERT_OK(txns_->Commit(t).status());

  CommitLog clog2;
  ASSERT_OK(clog2.Open(dir_.Sub("clog")));
  TxnManager txns2(&clog2, &pool_);
  txns2.RestoreNextXid();
  Transaction* fresh = txns2.Begin();
  EXPECT_GT(fresh->AssignXid(), last);
  ASSERT_OK(txns2.Abort(fresh));
}

TEST_F(TxnTest, XidFileReservesRangesAndRestartsPastThem) {
  // The xid file holds a ceiling every assigned XID is below, rewritten
  // once per range rather than per XID. A crash may lose the newest
  // ceiling (it is never fsynced on its own); the slack added at open must
  // still restart past every XID handed out. The transactions below are
  // left in flight, as a crash leaves them: no commit-log record.
  const std::string xid_path = dir_.Sub("xid");
  auto ceiling_on_disk = [&]() -> uint32_t {
    uint8_t buf[4] = {0, 0, 0, 0};
    FILE* f = fopen(xid_path.c_str(), "rb");
    if (f == nullptr) return 0;
    size_t n = fread(buf, 1, sizeof(buf), f);
    fclose(f);
    return n == sizeof(buf) ? DecodeFixed32(buf) : 0;
  };
  auto put_ceiling_on_disk = [&](uint32_t ceiling) {
    uint8_t buf[4];
    EncodeFixed32(buf, ceiling);
    FILE* f = fopen(xid_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fwrite(buf, 1, sizeof(buf), f), sizeof(buf));
    fclose(f);
  };
  Xid last = kInvalidXid;
  {
    TxnManager txns(&clog_, &pool_);
    ASSERT_OK(txns.OpenXidFile(xid_path));
    // Read-only transactions take no XID and reserve nothing.
    ASSERT_OK(txns.Commit(txns.Begin()).status());
    EXPECT_EQ(ceiling_on_disk(), 0u);

    last = txns.Begin()->AssignXid();
    const uint32_t ceiling = ceiling_on_disk();
    ASSERT_GT(ceiling, last);
    // Every XID below the ceiling is handed out without a write.
    while (last + 1 < ceiling) {
      last = txns.Begin()->AssignXid();
      ASSERT_EQ(ceiling_on_disk(), ceiling);
    }
    // The next one reserves the next range...
    last = txns.Begin()->AssignXid();
    EXPECT_EQ(last, ceiling);
    EXPECT_GT(ceiling_on_disk(), last);
    // ...and the crash will lose that write: the stale ceiling is back.
    put_ceiling_on_disk(ceiling);
    // Use up the whole reserved range. The XID that reserves the range
    // after it is beyond the guarantee (a second lost write) and is not
    // counted; the crash comes before that write, too, reaches disk.
    for (;;) {
      Xid xid = txns.Begin()->AssignXid();
      if (ceiling_on_disk() != ceiling) break;
      last = xid;
    }
    EXPECT_GT(last, ceiling);
    put_ceiling_on_disk(ceiling);
  }
  CommitLog clog2;
  ASSERT_OK(clog2.Open(dir_.Sub("clog2")));
  TxnManager restarted(&clog2, &pool_);
  ASSERT_OK(restarted.OpenXidFile(xid_path));
  Transaction* fresh = restarted.Begin();
  EXPECT_GT(fresh->AssignXid(), last);
  ASSERT_OK(restarted.Abort(fresh));
}

}  // namespace
}  // namespace pglo
