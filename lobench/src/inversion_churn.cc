// inversion_churn: writes beside writes. `threads` embedded sessions each
// work in their own Inversion directory, which set-up fills with 8 files;
// every transaction creates a file, writes 32 KB to it, removes the
// session's oldest file, and commits. The churn has no read-only
// transactions and no server. The run ends with a simulated crash, after
// which every acknowledged file must read back exactly, every removed file
// must be gone, and the integrity check must pass.

#include <algorithm>
#include <deque>
#include <latch>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/check.h"
#include "db/database.h"
#include "inversion/inversion_fs.h"
#include "workloads.h"

namespace lobench {
namespace {

using pglo::Bytes;
using pglo::Slice;
using pglo::Status;

constexpr size_t kFileBytes = 32 * 1024;
constexpr size_t kLiveFiles = 8;
constexpr int kSetups = 5;
/// Transactions per session in the fixed-work phase that sets the
/// end-to-end metrics (CPU time per transaction, stored and written bytes),
/// so they do not depend on how many transactions fit in the run.
constexpr int kCheckpointTxns = 64;
/// Traced run: read-only transactions in the commit-log probe.
constexpr int kReadOnlyProbeTxns = 200;
/// Read passes after the fixed-work phase (every live file, by path, in one
/// transaction), kPassGap apart: the host's CPU speed was seen to step by a
/// third within a few milliseconds, so the passes span about a second
/// instead of 40 ms.
constexpr int kReadPasses = 40;
constexpr auto kPassGap = std::chrono::milliseconds(25);
/// Whole rounds: a session checks the deadline every kLiveFiles txns.
constexpr int kRoundTxns = static_cast<int>(kLiveFiles);

std::string Dir(int k) { return "/s" + std::to_string(k); }
std::string FilePath(int k, uint64_t n) {
  return Dir(k) + "/f" + std::to_string(n);
}
uint64_t FileKey(uint64_t seed, int k, uint64_t n) {
  return Mix(seed, 0xF11E + static_cast<uint64_t>(k), n);
}
Bytes FileContent(uint64_t key) {
  Bytes b(kFileBytes);
  FillContent(key, 0, b.data(), b.size());
  return b;
}

/// One session's model: its acknowledged live files, oldest first, and
/// every file it removed.
struct SessionModel {
  std::deque<uint64_t> live;
  std::vector<uint64_t> removed;
  uint64_t next = 0;
};

struct SessionResult {
  Samples write_ms, traced_ms, untraced_ms;
  std::vector<int64_t> done_ns;  ///< commit times
  uint64_t attempted = 0, committed = 0;
  std::vector<std::string> errors;  ///< failed operations
  Tracer tracer;
};

/// One churn transaction: only the calls into the program, each in its
/// span.
Status ChurnTxn(pglo::Session* s, pglo::InversionFs* inv,
                const std::string& path, const Bytes& data,
                const std::string& oldest, Tracer* tr, uint32_t root) {
  pglo::Transaction* txn;
  {
    Scoped sp(tr, "db.begin", root);
    txn = s->Begin();
  }
  {
    Scoped sp(tr, "inversion.create", root);
    PGLO_RETURN_IF_ERROR(inv->Create(txn, path, pglo::LoSpec{}).status());
  }
  std::unique_ptr<pglo::InversionFile> file;
  {
    Scoped sp(tr, "inversion.open", root);
    PGLO_ASSIGN_OR_RETURN(file, inv->Open(txn, path, true));
  }
  {
    Scoped sp(tr, "inversion.write", root);
    PGLO_RETURN_IF_ERROR(file->Write(Slice(data)));
    file.reset();
  }
  if (!oldest.empty()) {
    Scoped sp(tr, "inversion.remove", root);
    PGLO_RETURN_IF_ERROR(inv->Remove(txn, oldest));
  }
  {
    Scoped sp(tr, "db.commit", root);
    PGLO_RETURN_IF_ERROR(s->Commit().status());
  }
  return Status::OK();
}

/// Runs `max_txns` transactions (or whole rounds until `deadline` when
/// max_txns is 0).
void RunSession(int k, const Args& a, pglo::Session* s,
                pglo::InversionFs* inv, SessionModel* m, int max_txns,
                int64_t deadline, std::latch* start, SessionResult* out) {
  start->arrive_and_wait();
  Tracer off;
  int done = 0;
  while (max_txns > 0 ? done < max_txns : NowNs() < deadline) {
    for (int i = 0; i < kRoundTxns && (max_txns == 0 || done < max_txns);
         ++i, ++done) {
      const bool traced = a.trace && out->attempted % 2 == 1;
      Tracer* tr = traced ? &out->tracer : &off;
      const std::string path = FilePath(k, m->next);
      const Bytes data = FileContent(FileKey(a.seed, k, m->next));
      const bool removed = m->live.size() == kLiveFiles;
      const std::string oldest = removed ? FilePath(k, m->live.front()) : "";
      int64_t t0 = NowNs();
      uint32_t root = traced ? tr->Begin("txn.churn", 0) : 0;
      Status st = ChurnTxn(s, inv, path, data, oldest, tr, root);
      if (root != 0) tr->End(root);
      double ms = static_cast<double>(NowNs() - t0) / 1e6;
      ++out->attempted;
      if (!st.ok()) {
        out->errors.push_back(st.ToString());
        if (s->in_txn()) (void)s->Abort();
        ++m->next;  // never reuse a name whose fate is unknown
        continue;
      }
      ++out->committed;
      m->live.push_back(m->next++);
      if (removed) {
        m->removed.push_back(m->live.front());
        m->live.pop_front();
      }
      const int64_t done = NowNs();
      out->write_ms.Add(ms, done);
      out->done_ns.push_back(done);
      (traced ? out->traced_ms : out->untraced_ms).Add(ms);
    }
  }
}

/// The file oracle: "" when `got` is exactly the file's content.
std::string CompareFile(const std::string& path, const Bytes& got,
                        uint64_t key) {
  if (got != FileContent(key)) {
    return path + ": " + std::to_string(got.size()) +
           " bytes that differ from what was acknowledged";
  }
  return "";
}

std::string CheckFile(pglo::InversionFs* inv, pglo::Transaction* txn,
                      const std::string& path, uint64_t key) {
  auto file = inv->Open(txn, path, false);
  if (!file.ok()) return path + ": " + file.status().ToString();
  auto got = (*file)->Read(kFileBytes + 1);
  if (!got.ok()) return path + ": " + got.status().ToString();
  return CompareFile(path, *got, key);
}

/// Checks the reopened database against the model; returns the problems.
std::vector<std::string> Verify(pglo::Database* db, pglo::InversionFs* inv,
                                const std::vector<SessionModel>& models,
                                uint64_t seed) {
  std::vector<std::string> problems;
  auto s = db->Connect();
  pglo::Transaction* txn = s->Begin();
  for (int k = 0; k < static_cast<int>(models.size()); ++k) {
    const SessionModel& m = models[k];
    std::set<std::string> want, got;
    for (uint64_t n : m.live) {
      want.insert("f" + std::to_string(n));
      std::string err = CheckFile(inv, txn, FilePath(k, n), FileKey(seed, k, n));
      if (!err.empty()) problems.push_back(err);
    }
    for (uint64_t n : m.removed) {
      auto exists = inv->Exists(txn, FilePath(k, n));
      if (!exists.ok() || *exists) {
        problems.push_back(FilePath(k, n) + " was removed but is present");
      }
    }
    auto entries = inv->ReadDir(txn, Dir(k));
    if (!entries.ok()) {
      problems.push_back(Dir(k) + ": " + entries.status().ToString());
      continue;
    }
    for (const auto& e : *entries) got.insert(e.name);
    if (got != want) {
      problems.push_back(Dir(k) + " lists " + std::to_string(got.size()) +
                         " entries, the model " + std::to_string(want.size()));
    }
  }
  (void)s->Abort();
  return problems;
}

/// Opens a fresh database and gives each session's directory its first
/// kLiveFiles files (names 0 .. kLiveFiles-1).
Status SetUp(const std::string& dir, int threads, uint64_t seed,
             pglo::Database* db, std::unique_ptr<pglo::InversionFs>* inv) {
  pglo::DatabaseOptions options;  // the embedded defaults
  options.dir = dir;
  PGLO_RETURN_IF_ERROR(db->Open(options));
  *inv = std::make_unique<pglo::InversionFs>(db->context(),
                                             &db->large_objects());
  auto s = db->Connect();
  pglo::Transaction* txn = s->Begin();
  PGLO_RETURN_IF_ERROR((*inv)->Bootstrap(txn));
  for (int k = 0; k < threads; ++k) {
    PGLO_RETURN_IF_ERROR((*inv)->MkDir(txn, Dir(k)).status());
    for (uint64_t n = 0; n < kLiveFiles; ++n) {
      PGLO_RETURN_IF_ERROR(
          (*inv)->Create(txn, FilePath(k, n), pglo::LoSpec{}).status());
      PGLO_ASSIGN_OR_RETURN(auto file, (*inv)->Open(txn, FilePath(k, n), true));
      PGLO_RETURN_IF_ERROR(file->Write(Slice(FileContent(FileKey(seed, k, n)))));
    }
  }
  return s->Commit().status();
}

/// One read pass: every live file of every session read by path in one
/// transaction that commits; the contents are checked after the timed
/// interval. Adds the pass's process CPU seconds to `cpu_s`; false after a
/// failure (recorded in `r`).
bool ReadPass(pglo::Database* db, pglo::InversionFs* inv,
              const std::vector<SessionModel>& models, uint64_t seed,
              Report* r, Samples* cpu_s) {
  auto s = db->Connect();
  std::vector<Bytes> got;
  const int64_t c0 = ProcessCpuNs();
  Status st = [&]() -> Status {
    pglo::Transaction* txn = s->Begin();
    for (int k = 0; k < static_cast<int>(models.size()); ++k) {
      for (uint64_t n : models[k].live) {
        PGLO_ASSIGN_OR_RETURN(auto file, inv->Open(txn, FilePath(k, n), false));
        PGLO_ASSIGN_OR_RETURN(Bytes data, file->Read(kFileBytes + 1));
        got.push_back(std::move(data));
      }
    }
    return s->Commit().status();
  }();
  const int64_t c1 = ProcessCpuNs();
  ++r->attempted;
  if (!st.ok()) {
    r->OperationFailed("read pass: " + st.ToString());
    if (s->in_txn()) (void)s->Abort();
    return false;
  }
  cpu_s->Add(static_cast<double>(c1 - c0) / 1e9);
  size_t i = 0;
  for (int k = 0; k < static_cast<int>(models.size()); ++k) {
    for (uint64_t n : models[k].live) {
      std::string err =
          CompareFile(FilePath(k, n), got[i++], FileKey(seed, k, n));
      if (!err.empty()) r->Fail("read pass: " + err);
    }
  }
  return true;
}

/// Commit-log forces per read-only transaction: each probe transaction
/// reads one of session 0's live files and commits.
double ReadOnlyFsyncs(pglo::Database* db, pglo::InversionFs* inv,
                      const SessionModel& m, uint64_t seed, Report* r) {
  auto s = db->Connect();
  const uint64_t f0 = db->txns().commit_log().fsync_count();
  for (int i = 0; i < kReadOnlyProbeTxns; ++i) {
    const uint64_t n = m.live[static_cast<size_t>(i) % m.live.size()];
    pglo::Transaction* txn = s->Begin();
    std::string err = CheckFile(inv, txn, FilePath(0, n), FileKey(seed, 0, n));
    Status st = s->Commit().status();
    if (!st.ok()) err = "probe commit: " + st.ToString();
    if (!err.empty()) r->Fail("read-only probe: " + err);
  }
  return Ratio(static_cast<double>(db->txns().commit_log().fsync_count() - f0),
               kReadOnlyProbeTxns);
}

}  // namespace

void RunInversionChurn(const Args& a, Report* r) {
  const std::string dir = a.workdir + "/churn";
  Samples setup_s, setup_cpu_s;
  std::unique_ptr<pglo::Database> db;
  std::unique_ptr<pglo::InversionFs> inv;
  for (int i = 0; i < kSetups; ++i) {
    inv.reset();
    if (db) (void)db->Close();
    db = std::make_unique<pglo::Database>();
    RemoveTree(dir);
    const int64_t c0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    Status s = SetUp(dir, a.threads, a.seed, db.get(), &inv);
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
    setup_cpu_s.Add(static_cast<double>(ProcessCpuNs() - c0) / 1e9);
    if (!s.ok()) {
      r->Fail("inversion_churn setup: " + s.ToString());
      return;
    }
  }

  // The earlier set-ups' removed trees are written back here, not inside
  // the measured commits.
  SyncFilesystem(a.workdir);

  std::vector<std::unique_ptr<pglo::Session>> sessions;
  for (int k = 0; k < a.threads; ++k) sessions.push_back(db->Connect());
  std::vector<SessionModel> models(a.threads);
  for (SessionModel& m : models) {
    for (m.next = 0; m.next < kLiveFiles; ++m.next) m.live.push_back(m.next);
  }
  std::vector<SessionResult> results(a.threads);
  for (int k = 0; k < a.threads; ++k) {
    results[k].tracer = Tracer(a.trace, static_cast<uint32_t>(k + 1));
  }
  pglo::StatsSnapshot before = db->Stats();
  uint64_t fsyncs0 = db->txns().commit_log().fsync_count();

  // Phase 0: a fixed number of transactions per session, the sessions
  // taking turns, then the stored and written bytes and the read passes;
  // phase 1: the sessions concurrently, whole rounds until the deadline.
  double elapsed_s = 0;
  const int64_t t_start = NowNs();
  double stored_ratio = 0, written_ratio = 0, write_cpu_ms_per_mb = 0;
  Samples pass_cpu_s;
  const int64_t deadline = NowNs() + static_cast<int64_t>(a.seconds * 1e9);
  for (int phase = 0; phase < 2; ++phase) {
    const uint64_t written0 = StorageBytesWritten();
    const int64_t cpu0 = ProcessCpuNs();
    int64_t t0 = NowNs();
    if (phase == 0) {
      // The sessions take turns, one transaction each, so the work and the
      // bytes written do not depend on how their commits interleave.
      for (int i = 0; i < kCheckpointTxns; ++i) {
        for (int k = 0; k < a.threads; ++k) {
          std::latch start(1);
          RunSession(k, a, sessions[k].get(), inv.get(), &models[k], 1,
                     deadline, &start, &results[k]);
        }
      }
    } else {
      std::latch start(a.threads + 1);
      std::vector<std::thread> threads;
      for (int k = 0; k < a.threads; ++k) {
        threads.emplace_back(RunSession, k, std::cref(a), sessions[k].get(),
                             inv.get(), &models[k], 0, deadline, &start,
                             &results[k]);
      }
      t0 = NowNs();
      start.arrive_and_wait();
      for (auto& t : threads) t.join();
    }
    elapsed_s += static_cast<double>(NowNs() - t0) / 1e9;
    const int64_t cpu_ns = ProcessCpuNs() - cpu0;
    if (phase == 0) {
      uint64_t live = 0, committed = 0;
      for (int k = 0; k < a.threads; ++k) {
        live += models[k].live.size();
        committed += results[k].committed;
      }
      written_ratio = Ratio(static_cast<double>(StorageBytesWritten() -
                                                written0),
                            static_cast<double>(committed * kFileBytes));
      stored_ratio = Ratio(static_cast<double>(BytesOnDisk(dir)),
                           static_cast<double>(live * kFileBytes));
      write_cpu_ms_per_mb =
          Ratio(static_cast<double>(cpu_ns) / 1e6,
                static_cast<double>(committed * kFileBytes) / 1e6);
      for (int i = 0; i < kReadPasses; ++i) {
        if (i > 0) std::this_thread::sleep_for(kPassGap);
        ReadPass(db.get(), inv.get(), models, a.seed, r, &pass_cpu_s);
      }
    }
  }

  SessionResult all;
  for (SessionResult& res : results) {
    all.write_ms.Append(res.write_ms);
    all.traced_ms.Append(res.traced_ms);
    all.untraced_ms.Append(res.untraced_ms);
    all.attempted += res.attempted;
    all.committed += res.committed;
    all.tracer.Merge(res.tracer);
    all.done_ns.insert(all.done_ns.end(), res.done_ns.begin(),
                       res.done_ns.end());
    for (const std::string& e : res.errors) r->OperationFailed(e);
  }
  r->attempted = all.attempted;
  const int64_t t_end = NowNs();
  PrintPerSecond(all.done_ns, t_start);

  if (!a.trace) {
    const double pass_mb =
        static_cast<double>(a.threads * kLiveFiles * kFileBytes) / 1e6;
    r->Metric("read_cpu_ms_per_mb", Ratio(pass_cpu_s.P50() * 1e3, pass_mb),
              "ms/MB", pass_cpu_s.count());
    r->Metric("write_cpu_ms_per_mb", write_cpu_ms_per_mb, "ms/MB",
              static_cast<size_t>(kCheckpointTxns) * a.threads);
    r->Metric("stored_bytes_per_user_byte", stored_ratio, "ratio");
    r->Metric("written_bytes_per_user_byte", written_ratio, "ratio");
    r->Metric("setup_s", setup_cpu_s.P50(), "s", setup_cpu_s.count());
    r->Metric("setup_wall_s", setup_s.P50(), "s", setup_s.count());
    // Commit waits and host CPU share set these timings: on the reference
    // machine their medians moved 33-40% between sets of runs minutes apart
    // (README), so they are printed in the table only.
    r->Metric("txn_per_s", MedianPerSecond(all.done_ns, t_start, t_end),
              "txn/s", static_cast<size_t>(elapsed_s));
    r->Metric("write_p50_ms", all.write_ms.P50(), "ms", all.write_ms.count());
    if (auto p99 = all.write_ms.P99()) {
      r->Metric("write_p99_ms", *p99, "ms", all.write_ms.count());
    }
  } else {
    CounterWindow window;
    window.delta = StatsDelta(before, db->Stats());
    window.clog_fsyncs = db->txns().commit_log().fsync_count() - fsyncs0;
    // The read passes commit inside the window too.
    window.commits = all.committed + pass_cpu_s.count();
    window.txns = all.attempted + pass_cpu_s.count();
    window.lookups =
        static_cast<uint64_t>(window.delta.Counter("inversion.path_resolutions"));
    TraceAnalysis an = Analyze(all.tracer.spans());
    for (const char* name : {"db.begin", "db.commit"}) {
      r->Metric(std::string(name) + "_us", an.total_us[name].P50(), "us",
                an.total_us[name].count());
    }
    for (const char* call : {"create", "open", "remove"}) {
      const Samples& s = an.total_us["inversion." + std::string(call)];
      r->Metric("inversion." + std::string(call) + "_us", s.P50(), "us",
                s.count());
    }
    r->Metric("client.round_trips_per_txn", 0, "count");
    r->Metric("txn.clog_fsyncs_per_read_txn",
              ReadOnlyFsyncs(db.get(), inv.get(), models[0], a.seed, r), "count",
              kReadOnlyProbeTxns);
    ReportCounterMetrics(window, r);
    r->Metric("trace.overhead_pct",
              100.0 * (Ratio(all.traced_ms.P50(), all.untraced_ms.P50()) - 1),
              "%", all.traced_ms.count());
    ReportCoverage(an, r);
    std::fprintf(stderr, "# traced inversion_churn: %.1f txn/s, p50 %.3f ms\n",
                 all.committed / elapsed_s, all.write_ms.P50());
    if (!WriteSpans(a.outdir + "/inversion_churn.trace.json",
                    all.tracer.spans())) {
      r->Fail("cannot write the span file");
    }
  }

  // Crash, reopen, and check everything acknowledged against the model.
  sessions.clear();
  inv.reset();
  Status s = db->SimulateCrashAndReopen();
  if (!s.ok()) {
    r->Fail("reopen after crash: " + s.ToString());
    return;
  }
  pglo::InversionFs reopened(db->context(), &db->large_objects());
  for (const std::string& p : Verify(db.get(), &reopened, models, a.seed)) {
    r->Fail(p);
  }
  auto integrity = pglo::CheckIntegrity(db.get());
  if (!integrity.ok()) {
    r->Fail("integrity check: " + integrity.status().ToString());
  } else if (!integrity->ok()) {
    r->Fail("integrity check: " + integrity->ToString());
  }

  // The oracle's own check: a one-byte-corrupted read and a missing file
  // must both be caught.
  Bytes corrupt = FileContent(FileKey(a.seed, 0, 0));
  corrupt[kFileBytes / 3] ^= 0x04;
  if (CompareFile("probe", corrupt, FileKey(a.seed, 0, 0)).empty()) {
    r->Fail("file oracle missed a one-byte-corrupted read");
  }
  std::vector<SessionModel> with_missing = models;
  with_missing[0].live.push_back(models[0].next + 1000);
  if (Verify(db.get(), &reopened, with_missing, a.seed).empty()) {
    r->Fail("file oracle missed a missing file");
  }
  s = db->Close();
  if (!s.ok()) r->Fail("close: " + s.ToString());
}

}  // namespace lobench
