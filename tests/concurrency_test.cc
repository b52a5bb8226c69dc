// Multi-backend concurrency: K sessions driving interleaved transactions
// against one Database (the ISSUE 7 tentpole). These tests are the TSan /
// ASan workload for the whole engine — buffer pool, relation latches,
// transaction manager, commit log, LO manager — and the functional check
// that group commit batches concurrent committers without losing a commit.
//
// The supported concurrency model (DESIGN.md §13): one session per thread;
// any number of concurrent readers of an object; writers of the SAME
// object are serialized by the application (the reproduction has no tuple
// lock table, exactly like the visibility-only prototype the paper
// measured). Tests therefore give each writer thread its own object and
// let readers roam.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "obs/wait_event.h"
#include "storage/rel_latch.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

constexpr int kBackends = 4;
constexpr int kRounds = 16;
constexpr size_t kObjectBytes = 32 * 1024;  // 4 pages of chunks

/// The committed image of object `t` after its round `r` commit: a solid
/// byte identifying (backend, round). A reader must always observe a
/// solid image — any mix of two patterns is a torn (non-atomic) commit.
uint8_t PatternByte(int t, int r) {
  return static_cast<uint8_t>(0x10 * (t + 1) + (r % 8) + 1);
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  DatabaseOptions Options() {
    DatabaseOptions options;
    options.dir = dir_.Sub("db");
    options.charge_devices = false;
    options.buffer_pool_frames = 128;
    return options;
  }

  /// Creates one f-chunk object per backend, filled with its round-"0"
  /// pattern, and returns the oids.
  std::vector<Oid> CreateObjects(Database* db, int n) {
    std::vector<Oid> oids;
    auto session = db->Connect();
    for (int t = 0; t < n; ++t) {
      session->Begin();
      auto created = session->CreateLo(LoSpec{});
      EXPECT_OK(created.status());
      auto fd = session->OpenLo(created.value(), /*writable=*/true);
      EXPECT_OK(fd.status());
      Bytes image(kObjectBytes, PatternByte(t, 0));
      EXPECT_OK(fd.value()->Write(Slice(image)));
      EXPECT_OK(session->Commit().status());
      oids.push_back(created.value());
    }
    return oids;
  }

  TempDir dir_;
};

/// Reads `oid` under `session`'s open transaction and requires a solid
/// image; returns its byte.
uint8_t ReadSolidImage(Session* session, Oid oid) {
  auto fd = session->OpenLo(oid, /*writable=*/false);
  EXPECT_OK(fd.status());
  auto data = fd.value()->Read(kObjectBytes);
  EXPECT_OK(data.status());
  EXPECT_EQ(data.value().size(), kObjectBytes);
  uint8_t first = data.value().empty() ? 0 : data.value()[0];
  for (size_t i = 0; i < data.value().size(); ++i) {
    if (data.value()[i] != first) {
      ADD_FAILURE() << "torn image: byte " << i << " is "
                    << int(data.value()[i]) << ", expected " << int(first);
      return first;
    }
  }
  return first;
}

TEST_F(ConcurrencyTest, InterleavedSessionsSeeOnlyCommittedImages) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  std::vector<Oid> oids = CreateObjects(&db, kBackends);

  // last_committed[t] = the round whose pattern is object t's durable
  // image. Written only by thread t; read by everyone after the join.
  std::vector<int> last_committed(kBackends, 0);
  std::atomic<bool> failed{false};

  auto worker = [&](int t) {
    auto session = db.Connect();
    for (int r = 1; r <= kRounds && !failed.load(); ++r) {
      // Write this round's pattern; commit two rounds of three, abort the
      // third — aborted patterns must never become visible.
      bool abort_round = (r % 3 == 0);
      session->Begin();
      auto fd = session->OpenLo(oids[t], /*writable=*/true);
      if (!fd.ok()) { failed = true; return; }
      Bytes image(kObjectBytes,
                  abort_round ? uint8_t(0xEE) : PatternByte(t, r));
      if (!fd.value()->Write(Slice(image)).ok()) { failed = true; return; }
      if (abort_round) {
        if (!session->Abort().ok()) { failed = true; return; }
      } else {
        if (!session->Commit().ok()) { failed = true; return; }
        last_committed[t] = r;
      }

      // Read my own object back: must be exactly my last committed image.
      session->Begin();
      uint8_t mine = ReadSolidImage(session.get(), oids[t]);
      EXPECT_EQ(mine, PatternByte(t, last_committed[t]));
      // And a neighbour's: some committed image of that backend — solid,
      // carrying its owner id, never the 0xEE abort garbage.
      int other = (t + 1) % kBackends;
      uint8_t theirs = ReadSolidImage(session.get(), oids[other]);
      EXPECT_EQ(theirs & 0xF0, 0x10 * (other + 1))
          << "object " << other << " shows a foreign or aborted pattern";
      if (!session->Abort().ok()) { failed = true; return; }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kBackends);
  for (int t = 0; t < kBackends; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed.load());

  // Final oracle check from a fresh backend.
  auto session = db.Connect();
  session->Begin();
  for (int t = 0; t < kBackends; ++t) {
    EXPECT_EQ(ReadSolidImage(session.get(), oids[t]),
              PatternByte(t, last_committed[t]));
  }
  ASSERT_OK(session->Abort());
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, CompactionConcurrentWithSnapshotReaders) {
  // Online defragmentation is a writer of every object, but a no-overwrite
  // one: relocated versions are fresh inserts and the originals are only
  // MVCC-deleted, so snapshot readers opened before (or during) a
  // compaction pass must keep seeing solid committed images throughout.
  // One maintenance thread churns + compacts; reader threads roam — the
  // supported concurrency model, with compaction playing the writer.
  Database db;
  ASSERT_OK(db.Open(Options()));
  const int kObjects = 3;
  std::vector<Oid> oids = CreateObjects(&db, kObjects);

  std::vector<std::atomic<int>> committed(kObjects);
  for (auto& c : committed) c = 0;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  auto reader = [&] {
    auto session = db.Connect();
    while (!stop.load()) {
      // Floor snapshot: rounds committed before this Begin can never be
      // un-seen, no matter how much compaction relocates underneath.
      std::vector<int> floor(kObjects);
      for (int t = 0; t < kObjects; ++t) floor[t] = committed[t].load();
      session->Begin();
      for (int t = 0; t < kObjects; ++t) {
        uint8_t got = ReadSolidImage(session.get(), oids[t]);
        // ReadSolidImage already failed the test if the image was torn;
        // additionally the round must be at least the pre-Begin floor.
        int round = (got & 0x0F) - 1;
        EXPECT_GE(round, floor[t] % 8)
            << "reader saw an image older than its snapshot floor";
        if (::testing::Test::HasFailure()) { failed = true; return; }
      }
      if (!session->Abort().ok()) { failed = true; return; }
    }
  };

  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);

  // Maintenance thread (this one): whole-object rewrites so every commit
  // leaves a solid image, then CompactAll while the readers are live.
  auto writer_session = db.Connect();
  for (int r = 1; r <= 4 && !failed.load(); ++r) {
    for (int t = 0; t < kObjects; ++t) {
      writer_session->Begin();
      auto fd = writer_session->OpenLo(oids[t], /*writable=*/true);
      ASSERT_OK(fd.status());
      Bytes image(kObjectBytes, PatternByte(t, r));
      ASSERT_OK(fd.value()->Write(Slice(image)));
      ASSERT_OK(writer_session->Commit().status());
      committed[t] = r;
    }
    ASSERT_OK(db.large_objects().CompactAll().status());
  }
  stop = true;
  for (auto& th : readers) th.join();
  ASSERT_FALSE(failed.load());

  // Reclaim everything compaction vacated, then the final oracle check.
  ASSERT_OK(db.large_objects().Vacuum(db.Now()).status());
  auto session = db.Connect();
  session->Begin();
  for (int t = 0; t < kObjects; ++t) {
    EXPECT_EQ(ReadSolidImage(session.get(), oids[t]), PatternByte(t, 4));
  }
  ASSERT_OK(session->Abort());
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, GroupCommitBatchesFsyncsWithoutLosingCommits) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  constexpr int kCommitters = 8;
  std::vector<Oid> oids = CreateObjects(&db, kCommitters);

  uint64_t fsyncs_before = db.txns().commit_log().fsync_count();
  // Single commits (setup above, bootstrap) also flow through the queue as
  // 1-member batches; diff against this point.
  const TxnManager::CommitBatchStats before = db.txns().commit_batch_stats();
  std::vector<int> last_committed(kCommitters, 0);
  uint64_t total_commits = 0;

  // Rounds of simultaneous commits (a spin barrier lines the threads up)
  // until the leader demonstrably absorbed followers: some batch has 2+
  // members, i.e. fewer batches than commits. With 8 threads per round
  // this converges immediately in practice; the loop bound only guards
  // pathological scheduling.
  int round = 0;
  bool batched = false;
  while (!batched && round < 50) {
    ++round;
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kCommitters);
    for (int t = 0; t < kCommitters; ++t) {
      threads.emplace_back([&, t] {
        auto session = db.Connect();
        session->Begin();
        auto fd = session->OpenLo(oids[t], /*writable=*/true);
        ASSERT_OK(fd.status());
        Bytes image(kObjectBytes, PatternByte(t, round));
        ASSERT_OK(fd.value()->Write(Slice(image)));
        ready.fetch_add(1);
        while (ready.load() < kCommitters) std::this_thread::yield();
        ASSERT_OK(session->Commit().status());
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kCommitters; ++t) last_committed[t] = round;
    total_commits += kCommitters;
    const TxnManager::CommitBatchStats now = db.txns().commit_batch_stats();
    batched = now.batches - before.batches < total_commits;
  }
  ASSERT_TRUE(batched) << "no commit batch formed in " << round << " rounds";

  // Batching must have saved log forces: strictly fewer fsyncs than
  // commits (each CreateObjects commit above the baseline was 1:1).
  uint64_t fsyncs = db.txns().commit_log().fsync_count() - fsyncs_before;
  EXPECT_LT(fsyncs, total_commits);
  // Bookkeeping agrees: every round commit is in exactly one batch.
  const TxnManager::CommitBatchStats after = db.txns().commit_batch_stats();
  EXPECT_EQ(after.commits - before.commits, total_commits);
  EXPECT_GE(after.max_batch, 2u);

  // Zero lost commits: pull the plug and re-read every object.
  ASSERT_OK(db.SimulateCrashAndReopen());
  auto session = db.Connect();
  session->Begin();
  for (int t = 0; t < kCommitters; ++t) {
    EXPECT_EQ(ReadSolidImage(session.get(), oids[t]),
              PatternByte(t, last_committed[t]))
        << "backend " << t << "'s group-committed image did not survive";
  }
  ASSERT_OK(session->Abort());
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, CommitConsumesTheTransaction) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();

  Transaction* txn = session->Begin();
  ASSERT_TRUE(session->in_txn());
  ASSERT_OK(session->Commit().status());
  EXPECT_FALSE(session->in_txn());
  EXPECT_EQ(session->txn(), nullptr);

  // The session rejects a second Commit/Abort instead of touching the
  // consumed transaction.
  EXPECT_FALSE(session->Commit().ok());
  EXPECT_FALSE(session->Abort().ok());

  // Even the deprecated Database-level shim refuses the stale pointer
  // (membership check, no dereference of freed state).
  Status stale = db.Commit(txn).status();
  EXPECT_TRUE(stale.IsInvalidArgument()) << stale.ToString();

  // A fresh Begin works; stats counted both outcomes.
  session->Begin();
  ASSERT_OK(session->Abort());
  EXPECT_EQ(session->stats().begun, 2u);
  EXPECT_EQ(session->stats().committed, 1u);
  EXPECT_EQ(session->stats().aborted, 1u);
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, SessionDestructorAbortsInProgressTransaction) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  Oid oid;
  {
    auto session = db.Connect();
    session->Begin();
    ASSERT_OK_AND_ASSIGN(oid, session->CreateLo(LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
    ASSERT_OK(fd->Write(Slice("never committed")));
    // Session dropped with the transaction open: it must abort.
  }
  auto session = db.Connect();
  session->Begin();
  ASSERT_OK_AND_ASSIGN(bool exists, session->ExistsLo(oid));
  EXPECT_FALSE(exists);
  ASSERT_OK(session->Abort());
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, BackendIdsAreDense) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto a = db.Connect();
  auto b = db.Connect();
  auto c = db.Connect();
  EXPECT_EQ(a->backend_id(), 1u);
  EXPECT_EQ(b->backend_id(), 2u);
  EXPECT_EQ(c->backend_id(), 3u);
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, SingleStreamKeepsOneFsyncPerCommit) {
  // An uncontended stream forms batches of one whose leader never gathers,
  // so it keeps the historical 1:1 commit/fsync sequence — this is what
  // keeps single-stream benchmark times bit-identical.
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  uint64_t before = db.txns().commit_log().fsync_count();
  const TxnManager::CommitBatchStats batches_before =
      db.txns().commit_batch_stats();
  for (int i = 0; i < 5; ++i) {
    session->Begin();
    ASSERT_OK(session->CreateLo(LoSpec{}).status());
    ASSERT_OK(session->Commit().status());
  }
  EXPECT_EQ(db.txns().commit_log().fsync_count() - before, 5u);
  const TxnManager::CommitBatchStats batches_after =
      db.txns().commit_batch_stats();
  EXPECT_EQ(batches_after.batches - batches_before.batches, 5u);
  EXPECT_EQ(batches_after.commits - batches_before.commits, 5u);
  EXPECT_EQ(batches_after.max_batch, 1u);
  ASSERT_OK(db.Close());
}

// ---- wait-event instrumentation under real contention ------------------

const StatsSnapshot::HistogramEntry* SnapHist(const StatsSnapshot& s,
                                              const std::string& name) {
  for (const StatsSnapshot::HistogramEntry& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

TEST_F(ConcurrencyTest, ForcedContentionOnOneRelationReportsWaits) {
  // Every backend hammers the SAME object (readers may share), so every
  // read serializes on that relation's heap latch and the pool latch.
  // Acquire counts are deterministic; with 8 threads looping, actual
  // blocking is statistically certain, but only the deterministic
  // RelLatchContention test below asserts exact contended counts.
  Database db;
  ASSERT_OK(db.Open(Options()));
  std::vector<Oid> oids = CreateObjects(&db, 1);
  ASSERT_NE(db.waits(), nullptr);

  constexpr int kReaders = 8;
  constexpr int kReads = 64;
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      auto session = db.Connect();
      for (int i = 0; i < kReads; ++i) {
        session->Begin();
        ReadSolidImage(session.get(), oids[0]);
        ASSERT_OK(session->Abort());
      }
    });
  }
  for (auto& th : threads) th.join();

  StatsSnapshot snap = db.Stats();
  // Each read takes the heap latch at least once; 8 × 64 lower bound.
  EXPECT_GE(snap.Value("wait.latch.rel.heap.acquires"),
            uint64_t{kReaders * kReads});
  EXPECT_GT(snap.Value("wait.latch.bufpool.acquires"), 0u);
  EXPECT_GT(snap.Value("wait.clog.mutex.acquires"), 0u);
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, RelLatchContentionIsCountedAndTimed) {
  // Deterministic contended episode: A holds one relation's latch while B
  // provably blocks on it — contended count and the wall-time histogram
  // must both move, and B's WaitSlot must name the wait while blocked.
  Database db;
  ASSERT_OK(db.Open(Options()));
  ASSERT_NE(db.waits(), nullptr);
  RelLatchRegistry* latches = db.pool().rel_latches();
  const RelFileId file{kSmgrDisk, 424242};

  StatsSnapshot before = db.Stats();
  std::atomic<bool> held{false};
  std::atomic<bool> observed_wait{false};
  auto session_b = db.Connect();
  const BackendSlot* slot_b = session_b->activity_slot();
  ASSERT_NE(slot_b, nullptr);

  std::thread a([&] {
    latches->Lock(file, WaitEvent::kLatchRelHeap);
    held.store(true);
    // Hold until the monitor (below) has seen B blocked on this latch;
    // once B blocks, its slot stays published until A releases, so the
    // monitor cannot miss it. Bounded at ~2s as a deadlock backstop.
    for (int i = 0; i < 40000 && !observed_wait.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    latches->Unlock(file);
  });
  std::thread b([&] {
    while (!held.load()) std::this_thread::yield();
    // Publish B's WaitSlot from the blocking thread, as Session::Begin
    // does for cross-thread sessions.
    SetCurrentWaitSlot(&const_cast<BackendSlot*>(slot_b)->wait);
    latches->Lock(file, WaitEvent::kLatchRelHeap);
    latches->Unlock(file);
    SetCurrentWaitSlot(nullptr);
  });
  // Monitor: watch B's published slot until it names the latch wait
  // (bounded at ~2s; A keeps holding until the monitor has seen it).
  for (int i = 0; i < 40000 && !observed_wait.load(); ++i) {
    WaitSlot::Reading r = slot_b->wait.Read();
    if (r.event == WaitEvent::kLatchRelHeap) {
      observed_wait.store(true);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  a.join();
  b.join();
  EXPECT_TRUE(observed_wait.load())
      << "monitor never saw backend B publish latch.rel.heap";

  StatsSnapshot after = db.Stats();
  EXPECT_GE(after.Value("wait.latch.rel.heap.contended") -
                before.Value("wait.latch.rel.heap.contended"),
            1u);
  const StatsSnapshot::HistogramEntry* hist =
      SnapHist(after, "wait.latch.rel.heap_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->count, 1u);
  EXPECT_GT(hist->sum_ns, 0u);
  // The slot accumulated the finished wait.
  EXPECT_GE(slot_b->wait.waits(), 1u);
  EXPECT_GT(slot_b->wait.waited_ns(), 0u);
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, WaitSlotReadsAreNeverTorn) {
  // One writer flips the slot between idle and every wait class with
  // wildly different start stamps; concurrent readers must only ever see
  // (event, start) pairs written together — a stale-event/fresh-stamp mix
  // would decode as an absurd wait class or a nonzero idle stamp.
  WaitSlot slot;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto event = static_cast<WaitEvent>(
          1 + (i % (static_cast<uint64_t>(WaitEvent::kNumWaitEvents) - 1)));
      // Start stamps patterned so a torn read is detectable: the stamp's
      // low bits always equal the event id.
      uint64_t start = (i << 8) | static_cast<uint64_t>(event);
      slot.BeginWait(event, start);
      slot.EndWait(1);
      ++i;
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 200000; ++i) {
        WaitSlot::Reading reading = slot.Read();
        ASSERT_LT(static_cast<unsigned>(reading.event),
                  static_cast<unsigned>(WaitEvent::kNumWaitEvents));
        if (reading.event == WaitEvent::kNone) {
          ASSERT_EQ(reading.start_ns, 0u);
        } else {
          // The packed word carries event and stamp together.
          ASSERT_EQ(reading.start_ns & 0xFF,
                    static_cast<uint64_t>(reading.event));
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  writer.join();
}

TEST_F(ConcurrencyTest, ActivityViewTracksSessionsAndTxnState) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  EXPECT_EQ(db.activity().live_count(), 0u);

  auto a = db.Connect();
  auto b = db.Connect();
  EXPECT_EQ(db.activity().live_count(), 2u);

  a->Begin();
  std::vector<BackendActivityRow> rows = db.activity().Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].backend_id, a->backend_id());
  EXPECT_EQ(rows[1].backend_id, b->backend_id());
  EXPECT_TRUE(rows[0].in_txn);
  EXPECT_EQ(rows[0].xid, 0u);  // no XID before the first write
  EXPECT_EQ(rows[0].begun, 1u);
  EXPECT_FALSE(rows[1].in_txn);
  // The first write assigns the XID and publishes it to the row.
  ASSERT_OK(a->CreateLo(LoSpec{}).status());
  rows = db.activity().Snapshot();
  EXPECT_TRUE(rows[0].in_txn);
  EXPECT_GT(rows[0].xid, 0u);
  EXPECT_EQ(rows[0].xid, a->txn()->xid());
  ASSERT_OK(a->Commit().status());

  rows = db.activity().Snapshot();
  EXPECT_FALSE(rows[0].in_txn);
  EXPECT_EQ(rows[0].xid, 0u);
  EXPECT_EQ(rows[0].committed, 1u);

  // Disconnect frees the row; a later connect reuses the slot.
  b.reset();
  EXPECT_EQ(db.activity().live_count(), 1u);
  auto c = db.Connect();
  EXPECT_EQ(db.activity().live_count(), 2u);
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, SessionsUpdatingOneTupleConflictAtFirstWrite) {
  // Both sessions begin before either writes, so each overwrite of the
  // object's first chunk — an update of one tuple — is that session's
  // first write. First updater wins.
  Database db;
  ASSERT_OK(db.Open(Options()));
  std::vector<Oid> oids = CreateObjects(&db, 1);
  auto a = db.Connect();
  auto b = db.Connect();
  a->Begin();
  b->Begin();
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fa, a->OpenLo(oids[0], true));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fb, b->OpenLo(oids[0], true));
  EXPECT_EQ(a->txn()->xid(), kInvalidXid);
  EXPECT_EQ(b->txn()->xid(), kInvalidXid);
  ASSERT_OK(fa->Write(Slice(Bytes(100, 0xaa))));
  EXPECT_NE(a->txn()->xid(), kInvalidXid);
  Status lost = fb->Write(Slice(Bytes(100, 0xbb)));
  EXPECT_TRUE(lost.IsAborted()) << lost.ToString();
  ASSERT_OK(b->Abort());
  ASSERT_OK(a->Commit().status());

  a->Begin();
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, a->OpenLo(oids[0], false));
  ASSERT_OK_AND_ASSIGN(Bytes got, fd->Read(kObjectBytes));
  Bytes want(kObjectBytes, PatternByte(0, 0));
  std::fill(want.begin(), want.begin() + 100, 0xaa);
  EXPECT_EQ(got, want);
  ASSERT_OK(a->Abort());
  ASSERT_OK(db.Close());
}

}  // namespace
}  // namespace pglo
