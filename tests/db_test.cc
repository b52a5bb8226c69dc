#include <gtest/gtest.h>

#include "common/random.h"
#include "db/database.h"
#include "tests/durability_probe.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::DurabilityProbe;
using pglo::testing::ExpectNoDurabilityWork;
using pglo::testing::TempDir;

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseOptions Options() {
    DatabaseOptions options;
    options.dir = dir_.Sub("db");
    options.charge_devices = false;
    options.buffer_pool_frames = 64;
    return options;
  }
  TempDir dir_;
};

TEST_F(DatabaseTest, OpenCloseReopen) {
  Oid oid;
  {
    Database db;
    ASSERT_OK(db.Open(Options()));
    auto session = db.Connect();
    session->Begin();
    ASSERT_OK_AND_ASSIGN(oid, session->CreateLo(LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
    ASSERT_OK(fd->Write(Slice("survives restart")));
    ASSERT_OK(session->Commit().status());
    session.reset();
    ASSERT_OK(db.Close());
  }
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  session->Begin();
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "survives restart");
  ASSERT_OK(session->Abort());
}

TEST_F(DatabaseTest, ReadOnlyTransactionsDoNoDurabilityWork) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto writer = db.Connect();
  auto reader = db.Connect();
  Bytes image(32 * 1024, 0x5a);
  writer->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, writer->CreateLo(LoSpec{}));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * wfd, writer->OpenLo(oid, true));
  ASSERT_OK(wfd->Write(Slice(image)));
  ASSERT_OK(writer->Commit().status());

  // An in-flight writer leaves dirty pages in the pool, so a flush at the
  // reader's end would show as write-backs.
  writer->Begin();
  ASSERT_OK_AND_ASSIGN(wfd, writer->OpenLo(oid, true));
  ASSERT_OK(wfd->Write(Slice(Bytes(4096, 0x77))));
  ASSERT_NE(writer->txn()->xid(), kInvalidXid);

  for (bool commit : {true, false}) {
    SCOPED_TRACE(commit ? "commit" : "abort");
    DurabilityProbe before = DurabilityProbe::Take(db);
    reader->Begin();
    ASSERT_OK_AND_ASSIGN(LoDescriptor * rfd, reader->OpenLo(oid, false));
    ASSERT_OK_AND_ASSIGN(Bytes got, rfd->Read(image.size()));
    EXPECT_EQ(got, image);  // the writer's pending bytes stay invisible
    EXPECT_EQ(reader->txn()->xid(), kInvalidXid);
    if (commit) {
      CommitTime now = db.Now();
      ASSERT_OK_AND_ASSIGN(CommitTime t, reader->Commit());
      EXPECT_EQ(t, now);
    } else {
      ASSERT_OK(reader->Abort());
    }
    ExpectNoDurabilityWork(before, DurabilityProbe::Take(db));
  }

  // The probe is not blind: the writer's commit shows every kind of work.
  DurabilityProbe before = DurabilityProbe::Take(db);
  ASSERT_OK(writer->Commit().status());
  DurabilityProbe after = DurabilityProbe::Take(db);
  EXPECT_GT(after.clog_fsyncs, before.clog_fsyncs);
  EXPECT_GT(after.clog_bytes.size(), before.clog_bytes.size());
  EXPECT_GT(after.writebacks, before.writebacks);
  EXPECT_GT(after.data_syncs, before.data_syncs);
  EXPECT_GT(after.commit_serializations, before.commit_serializations);
  ASSERT_OK(db.Close());
}

TEST_F(DatabaseTest, UfileOnlyTransactionForcesTheUfsAtCommit) {
  // u-file bytes bypass the heap: a transaction whose only write is to a
  // u-file must still take an XID, so its commit runs the UFS force hook
  // and the bytes survive a crash.
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  LoSpec spec;
  spec.kind = StorageKind::kUserFile;
  spec.ufile_path = "/only_ufile";
  session->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, session->CreateLo(spec));
  ASSERT_OK(session->Commit().status());

  Bytes image(20000, 0x3c);
  session->Begin();
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
  EXPECT_EQ(session->txn()->xid(), kInvalidXid);  // opening writes nothing
  ASSERT_OK(fd->Write(Slice(image)));
  EXPECT_NE(session->txn()->xid(), kInvalidXid);
  DurabilityProbe before = DurabilityProbe::Take(db);
  ASSERT_OK(session->Commit().status());
  DurabilityProbe after = DurabilityProbe::Take(db);
  EXPECT_GT(after.clog_fsyncs, before.clog_fsyncs);
  EXPECT_GT(after.commit_serializations, before.commit_serializations);

  ASSERT_OK(db.SimulateCrashAndReopen());
  session = db.Connect();
  session->Begin();
  ASSERT_OK_AND_ASSIGN(fd, session->OpenLo(oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes got, fd->Read(image.size() + 1));
  EXPECT_EQ(got, image);
  ASSERT_OK(session->Abort());
  ASSERT_OK(db.Close());
}

TEST_F(DatabaseTest, DoubleOpenRejected) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  EXPECT_TRUE(db.Open(Options()).IsInvalidArgument());
}

TEST_F(DatabaseTest, MissingDirRejected) {
  Database db;
  DatabaseOptions options;
  EXPECT_TRUE(db.Open(options).IsInvalidArgument());
}

TEST_F(DatabaseTest, CommittedDataSurvivesCrash) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  Oid oid;
  {
    auto session = db.Connect();
    session->Begin();
    ASSERT_OK_AND_ASSIGN(oid, session->CreateLo(LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
    ASSERT_OK(fd->Write(Slice("committed before crash")));
    ASSERT_OK(session->Commit().status());
  }
  ASSERT_OK(db.SimulateCrashAndReopen());
  auto session = db.Connect();
  session->Begin();
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "committed before crash");
  ASSERT_OK(session->Abort());
}

// The crash-mid-transaction tests below stay on the deprecated
// Database-level Begin(): they deliberately abandon a transaction at the
// crash point, which a Session would dutifully abort at destruction —
// defeating the test. The `db.deprecated_txn_api` counter keeps such
// callers visible (see DeprecatedTxnApiCounted).

TEST_F(DatabaseTest, UncommittedDataVanishesOnCrash) {
  // The no-overwrite commit protocol: a crash before the commit record
  // leaves the transaction unrecorded, hence aborted, hence invisible.
  Database db;
  ASSERT_OK(db.Open(Options()));
  Oid committed_oid;
  {
    Transaction* txn = db.Begin();
    ASSERT_OK_AND_ASSIGN(committed_oid,
                         db.large_objects().Create(txn, LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db.large_objects().Open(txn, committed_oid, true));
    ASSERT_OK(fd->Write(Slice("stable")));
    ASSERT_OK(db.Commit(txn).status());
  }
  Oid doomed_oid;
  {
    Transaction* txn = db.Begin();
    ASSERT_OK_AND_ASSIGN(doomed_oid, db.large_objects().Create(txn, LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db.large_objects().Open(txn, doomed_oid, true));
    ASSERT_OK(fd->Write(Slice("in flight")));
    // Force dirty pages out (simulating eviction before commit)...
    ASSERT_OK(db.pool().FlushAll());
    // ...then crash WITHOUT committing.
  }
  ASSERT_OK(db.SimulateCrashAndReopen());
  Transaction* txn = db.Begin();
  ASSERT_OK_AND_ASSIGN(bool exists,
                       db.large_objects().Exists(txn, doomed_oid));
  EXPECT_FALSE(exists);  // flushed-but-uncommitted tuples invisible
  ASSERT_OK_AND_ASSIGN(exists, db.large_objects().Exists(txn, committed_oid));
  EXPECT_TRUE(exists);
  ASSERT_OK(db.Abort(txn));
}

TEST_F(DatabaseTest, CrashMidTransactionRollsBackLoWrites) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  Oid oid;
  {
    Transaction* txn = db.Begin();
    ASSERT_OK_AND_ASSIGN(oid, db.large_objects().Create(txn, LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db.large_objects().Open(txn, oid, true));
    ASSERT_OK(fd->Write(Slice("original")));
    ASSERT_OK(db.Commit(txn).status());
  }
  {
    Transaction* txn = db.Begin();
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db.large_objects().Open(txn, oid, true));
    ASSERT_OK(fd->Seek(0, Whence::kSet).status());
    ASSERT_OK(fd->Write(Slice("CLOBBER!")));
    ASSERT_OK(db.pool().FlushAll());  // even if pages reached disk...
  }
  ASSERT_OK(db.SimulateCrashAndReopen());
  Transaction* txn = db.Begin();
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db.large_objects().Open(txn, oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "original");
  ASSERT_OK(db.Abort(txn));
}

TEST_F(DatabaseTest, TimeTravelSurvivesRestart) {
  Oid oid;
  CommitTime v1_time;
  {
    Database db;
    ASSERT_OK(db.Open(Options()));
    auto session = db.Connect();
    session->Begin();
    ASSERT_OK_AND_ASSIGN(oid, session->CreateLo(LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
    ASSERT_OK(fd->Write(Slice("v1")));
    ASSERT_OK_AND_ASSIGN(v1_time, session->Commit());
    session->Begin();
    ASSERT_OK_AND_ASSIGN(fd, session->OpenLo(oid, true));
    ASSERT_OK(fd->Seek(0, Whence::kSet).status());
    ASSERT_OK(fd->Write(Slice("v2")));
    ASSERT_OK(session->Commit().status());
    session.reset();
    ASSERT_OK(db.Close());
  }
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  session->BeginAsOf(v1_time);
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(16));
  EXPECT_EQ(Slice(data).ToString(), "v1");
  ASSERT_OK(session->Abort());
}

TEST_F(DatabaseTest, OidsNeverReusedAfterCrash) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  session->Begin();
  ASSERT_OK_AND_ASSIGN(Oid before, session->CreateLo(LoSpec{}));
  ASSERT_OK(session->Commit().status());
  ASSERT_OK(db.SimulateCrashAndReopen());
  session->Begin();
  ASSERT_OK_AND_ASSIGN(Oid after, session->CreateLo(LoSpec{}));
  EXPECT_GT(after, before);
  ASSERT_OK(session->Commit().status());
}

TEST_F(DatabaseTest, WormStorageManagerUsableForLargeObjects) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  session->Begin();
  LoSpec spec;
  spec.smgr = kSmgrWorm;
  ASSERT_OK_AND_ASSIGN(Oid oid, session->CreateLo(spec));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
  ASSERT_OK(fd->Write(Slice("on the jukebox")));
  ASSERT_OK(session->Commit().status());
  session->Begin();
  ASSERT_OK_AND_ASSIGN(fd, session->OpenLo(oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "on the jukebox");
  EXPECT_GT(db.worm()->stats().optical_writes, 0u);
  ASSERT_OK(session->Abort());
}

TEST_F(DatabaseTest, MainMemoryStorageManagerUsable) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  session->Begin();
  LoSpec spec;
  spec.smgr = kSmgrMemory;
  ASSERT_OK_AND_ASSIGN(Oid oid, session->CreateLo(spec));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
  ASSERT_OK(fd->Write(Slice("in nvram")));
  ASSERT_OK(session->Commit().status());
  session->Begin();
  ASSERT_OK_AND_ASSIGN(fd, session->OpenLo(oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "in nvram");
  ASSERT_OK(session->Abort());
}

// Crash-consistency property test: random transactions, random crash
// points; the database must always reopen to exactly the last committed
// state.
class CrashFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashFuzz, AlwaysRecoversToCommittedState) {
  pglo::testing::TempDir dir;
  DatabaseOptions options;
  options.dir = dir.Sub("db");
  options.charge_devices = false;
  options.buffer_pool_frames = 64;
  Database db;
  ASSERT_OK(db.Open(options));

  pglo::Random rng(GetParam());
  Oid oid;
  Bytes committed;  // reference of the last committed object state
  {
    Transaction* txn = db.Begin();
    ASSERT_OK_AND_ASSIGN(oid, db.large_objects().Create(txn, LoSpec{}));
    ASSERT_OK(db.Commit(txn).status());
  }

  for (int round = 0; round < 15; ++round) {
    Transaction* txn = db.Begin();
    ASSERT_OK_AND_ASSIGN(auto lo, db.large_objects().Instantiate(txn, oid));
    Bytes staged = committed;
    int writes = 1 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < writes; ++i) {
      uint64_t off = rng.Uniform(40'000);
      Bytes data = rng.RandomBytes(rng.Range(100, 9'000));
      ASSERT_OK(lo->Write(txn, off, Slice(data)));
      if (staged.size() < off + data.size()) {
        staged.resize(off + data.size(), 0);
      }
      std::memcpy(staged.data() + off, data.data(), data.size());
    }
    switch (rng.Uniform(3)) {
      case 0:  // commit, then maybe crash after
        ASSERT_OK(db.Commit(txn).status());
        committed = std::move(staged);
        if (rng.OneInHundred(50)) {
          ASSERT_OK(db.SimulateCrashAndReopen());
        }
        break;
      case 1:  // abort
        ASSERT_OK(db.Abort(txn));
        break;
      case 2:  // crash mid-transaction (sometimes with pages flushed)
        if (rng.OneInHundred(50)) {
          ASSERT_OK(db.pool().FlushAll());
        }
        ASSERT_OK(db.SimulateCrashAndReopen());
        break;
    }
    // Verify committed state after every round.
    Transaction* check = db.Begin();
    ASSERT_OK_AND_ASSIGN(auto lo2, db.large_objects().Instantiate(check, oid));
    ASSERT_OK_AND_ASSIGN(uint64_t size, lo2->Size(check));
    ASSERT_EQ(size, committed.size()) << "round " << round;
    if (size > 0) {
      Bytes got(size);
      ASSERT_OK_AND_ASSIGN(size_t n, lo2->Read(check, 0, size, got.data()));
      ASSERT_EQ(n, size);
      ASSERT_EQ(got, committed) << "round " << round;
    }
    ASSERT_OK(db.Abort(check));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashFuzz,
                         ::testing::Values(21, 42, 84, 168, 336));

TEST_F(DatabaseTest, DeprecatedTxnApiCounted) {
  // Database-level Begin() still works but announces itself: every call
  // bumps db.deprecated_txn_api, so stragglers show up in any snapshot.
  // Session-routed transactions must NOT count.
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto counted = [&]() {
    for (const auto& [name, value] : db.Stats().counters) {
      if (name == "db.deprecated_txn_api") return value;
    }
    return uint64_t{0};
  };
  uint64_t base = counted();  // Open() bootstraps internally, uncounted
  {
    auto session = db.Connect();
    session->Begin();
    ASSERT_OK(session->Abort());
  }
  EXPECT_EQ(counted(), base);
  Transaction* txn = db.Begin();
  ASSERT_OK(db.Abort(txn));
  EXPECT_EQ(counted(), base + 1);
  txn = db.BeginAsOf(db.Now());
  ASSERT_OK(db.Abort(txn));
  EXPECT_EQ(counted(), base + 2);
}

TEST_F(DatabaseTest, SimulatedTimeAdvancesWithCharging) {
  DatabaseOptions options = Options();
  options.charge_devices = true;
  Database db;
  ASSERT_OK(db.Open(options));
  auto session = db.Connect();
  session->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, session->CreateLo(LoSpec{}));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
  Bytes data(100'000, 1);
  ASSERT_OK(fd->Write(Slice(data)));
  ASSERT_OK(session->Commit().status());
  EXPECT_GT(db.clock().NowNanos(), 0u);
  EXPECT_GT(db.disk_device()->stats().writes, 0u);
}

}  // namespace
}  // namespace pglo
