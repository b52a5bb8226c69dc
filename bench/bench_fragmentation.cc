// Long-horizon churn benchmark: fragmentation decay and online compaction.
//
// Creates a population of f-chunk and v-segment objects with zipfian sizes,
// then runs create/overwrite/delete churn epochs. After every epoch the
// database is vacuumed (so the free-space map learns the interior holes —
// later writes scatter into them) and reopened cold, and a full sequential
// read of every object is measured: simulated elapsed time, simulated disk
// seeks, and effective bandwidth. Fragmentation shows up as seq-read decay
// across epochs. Finally LoManager::CompactAll() relocates every live
// chunk/segment into fresh contiguous pages, Vacuum reclaims the vacated
// versions, and the sequential read is measured once more — the paper-style
// claim under test is that compaction restores near-fresh bandwidth.
//
// Run: bench_fragmentation [--no-stats] [--quick] [--trace=FILE]
//                          [--json=FILE] [--gate-degradation-pct=N]
//                          [--gate-restore-pct=N] [workdir]
// Results go to BENCH_fragmentation[_quick].json (pglo-bench-v1 schema).
//
// The gate flags make the bench self-checking for CI (tools/check.sh):
//   --gate-degradation-pct=20  fail unless churn degraded sequential reads
//                              by at least 20% (the problem must manifest)
//   --gate-restore-pct=10      fail unless the post-compaction time is
//                              within 10% of the fresh time (the fix works)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace pglo {
namespace bench {
namespace {

/// Churn unit: one full f-chunk chunk / one v-segment segment. Whole-unit
/// overwrites replace a version without read-modify-write noise.
constexpr uint32_t kUnit = 8000;

struct FragScale {
  int objects;            ///< initial population
  int max_units;          ///< zipfian size cap, in kUnit units
  int epochs;             ///< churn rounds
  int recreate_per_epoch; ///< objects unlinked + re-created each round
};

FragScale FragScaleFor(bool quick) {
  if (quick) return {16, 48, 4, 2};
  return {24, 192, 6, 2};
}

/// Deterministic zipf(1) sampler over 1..max: P(k) proportional to 1/k.
/// Hand-rolled inverse CDF — std::discrete_distribution's algorithm is
/// implementation-defined, and this bench's numbers feed a committed
/// baseline.
class Zipf {
 public:
  explicit Zipf(int max) {
    cum_.reserve(max);
    uint64_t total = 0;
    for (int k = 1; k <= max; ++k) {
      total += 1'000'000 / static_cast<uint64_t>(k);
      cum_.push_back(total);
    }
  }
  int Sample(std::mt19937_64& rng) const {
    uint64_t r = rng() % cum_.back();
    size_t lo = 0, hi = cum_.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (cum_[mid] <= r) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<int>(lo) + 1;
  }

 private:
  std::vector<uint64_t> cum_;
};

uint64_t SumCounter(const StatsSnapshot& snap, const std::string& name) {
  uint64_t total = 0;
  for (const auto& [counter, value] : snap.counters) {
    if (counter == name) total += value;
  }
  return total;
}

struct LiveObject {
  Oid oid = kInvalidOid;
  uint64_t units = 0;  ///< size in kUnit units
};

/// One tracked object creation: zipfian size, unit-at-a-time writes (the
/// paper created its object frame by frame), one transaction.
Result<LiveObject> CreateChurnObject(Database& db, StorageKind kind,
                                     uint64_t units, uint8_t fill) {
  LoSpec spec;
  spec.kind = kind;
  spec.smgr = kSmgrDisk;
  spec.chunk_size = kUnit;
  spec.max_segment = kUnit;
  auto session = db.Connect();
  Transaction* txn = session->Begin();
  PGLO_ASSIGN_OR_RETURN(Oid oid, db.large_objects().Create(txn, spec));
  PGLO_ASSIGN_OR_RETURN(std::unique_ptr<LargeObject> lo,
                        db.large_objects().Instantiate(txn, oid));
  Bytes buf(kUnit, fill);
  for (uint64_t u = 0; u < units; ++u) {
    buf[0] = static_cast<uint8_t>(u);  // cheap per-unit variation
    PGLO_RETURN_IF_ERROR(lo->Write(txn, u * kUnit, Slice(buf)));
  }
  PGLO_RETURN_IF_ERROR(session->Commit().status());
  return LiveObject{oid, units};
}

struct PassResult {
  double seconds = 0.0;
  uint64_t seeks = 0;
  uint64_t bytes = 0;
  double mb_per_s() const {
    return seconds > 0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
  }
};

/// Cold sequential read of every object, oldest first, unit at a time.
/// Caller reopens the database first so the pass starts with empty caches.
Result<PassResult> MeasureSeqRead(Database& db,
                                  const std::vector<LiveObject>& objs) {
  PassResult result;
  auto session = db.Connect();
  Transaction* txn = session->Begin();
  uint64_t seeks0 = SumCounter(db.Stats(), "device.disk.seeks");
  SimTimer timer(&db.clock());
  Bytes buf(kUnit);
  for (const LiveObject& obj : objs) {
    PGLO_ASSIGN_OR_RETURN(std::unique_ptr<LargeObject> lo,
                          db.large_objects().Instantiate(txn, obj.oid));
    uint64_t size = obj.units * kUnit;
    for (uint64_t off = 0; off < size; off += kUnit) {
      size_t want = static_cast<size_t>(
          std::min<uint64_t>(kUnit, size - off));
      PGLO_ASSIGN_OR_RETURN(size_t n, lo->Read(txn, off, want, buf.data()));
      result.bytes += n;
    }
  }
  result.seconds = timer.ElapsedSeconds();
  result.seeks = SumCounter(db.Stats(), "device.disk.seeks") - seeks0;
  PGLO_RETURN_IF_ERROR(session->Abort());
  return result;
}

DatabaseOptions FragOptions(const std::string& dir, bool stats,
                            int readahead) {
  DatabaseOptions options = PaperOptions(dir);
  options.enable_stats = stats;
  // A pool smaller than the object population keeps the measured pass
  // device-bound (the cold reopen already empties it; this stops the tail
  // of one pass from hiding in DRAM).
  options.buffer_pool_frames = 96;
  if (readahead >= 0) {
    options.readahead_pages = static_cast<uint32_t>(readahead);
  }
  return options;
}

struct GateSpec {
  double degradation_pct = 0.0;  ///< 0 = gate off
  double restore_pct = 0.0;      ///< 0 = gate off
};

int RunConfig(const char* label, StorageKind kind, BenchRun& run,
              const BenchArgs& args, const FragScale& fs,
              const GateSpec& gate, bool* gate_failed) {
  std::string dir = args.workdir + "/" + label;
  DatabaseOptions options = FragOptions(dir, args.stats, args.readahead);
  Database db;
  Status s = db.Open(options);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  // The config's counters table snapshots the final open (reopen + the
  // compacted read pass) — the per-epoch deltas live in each row's values.
  // Note this config reopens the database several times, so an attached
  // trace writer only sees spans up to the first reopen.
  std::map<std::string, std::string> info;
  info["kind"] = std::string(StorageKindToString(kind));
  info["objects"] = std::to_string(fs.objects);
  info["max_units"] = std::to_string(fs.max_units);
  info["epochs"] = std::to_string(fs.epochs);
  run.StartConfig(label, &db, info);

  std::mt19937_64 rng(0x5EED0000 + static_cast<uint64_t>(kind));
  Zipf zipf(fs.max_units);

  auto fail = [&](const char* what, const Status& st) {
    std::fprintf(stderr, "%s: %s failed: %s\n", label, what,
                 st.ToString().c_str());
    return 1;
  };

  // Initial population.
  std::vector<LiveObject> objs;
  for (int i = 0; i < fs.objects; ++i) {
    Result<LiveObject> obj = CreateChurnObject(
        db, kind, static_cast<uint64_t>(zipf.Sample(rng)),
        static_cast<uint8_t>(i));
    if (!obj.ok()) return fail("create", obj.status());
    objs.push_back(*obj);
  }
  Result<uint64_t> vac = db.large_objects().Vacuum(db.Now());
  if (!vac.ok()) return fail("vacuum", vac.status());

  auto reopen = [&]() -> Status {
    PGLO_RETURN_IF_ERROR(db.Close());
    return db.Open(options);
  };

  // Fresh baseline.
  if (Status rs = reopen(); !rs.ok()) return fail("reopen", rs);
  Result<PassResult> fresh = MeasureSeqRead(db, objs);
  if (!fresh.ok()) return fail("fresh read", fresh.status());
  run.RecordResult("fresh_read", fresh->seconds);
  run.RecordValue("fresh_read", "seeks", static_cast<double>(fresh->seeks));
  run.RecordValue("fresh_read", "mb_per_s", fresh->mb_per_s());
  std::printf("%12s %-16s %10.3f s %10.1f MB/s %8llu seeks\n", label,
              "fresh", fresh->seconds, fresh->mb_per_s(),
              static_cast<unsigned long long>(fresh->seeks));

  // Churn epochs.
  double churned_s = fresh->seconds;
  for (int epoch = 1; epoch <= fs.epochs; ++epoch) {
    // Overwrite ~25% of every surviving object's units, in random order —
    // cross-transaction updates scatter the new versions into whatever
    // holes the free-space map learned last vacuum.
    for (const LiveObject& obj : objs) {
      auto session = db.Connect();
      Transaction* txn = session->Begin();
      Result<std::unique_ptr<LargeObject>> lo =
          db.large_objects().Instantiate(txn, obj.oid);
      if (!lo.ok()) return fail("instantiate", lo.status());
      uint64_t rewrites = std::max<uint64_t>(1, obj.units / 4);
      Bytes buf(kUnit, static_cast<uint8_t>(epoch));
      for (uint64_t r = 0; r < rewrites; ++r) {
        uint64_t pos = rng() % obj.units;
        buf[0] = static_cast<uint8_t>(pos);
        Status ws = (*lo)->Write(txn, pos * kUnit, Slice(buf));
        if (!ws.ok()) return fail("overwrite", ws);
      }
      Result<CommitTime> cs = session->Commit();
      if (!cs.ok()) return fail("commit", cs.status());
    }
    // Rotate part of the population: unlink the oldest objects, create
    // replacements (their files are new; the churn lives in survivors).
    for (int r = 0; r < fs.recreate_per_epoch && !objs.empty(); ++r) {
      auto session = db.Connect();
      Transaction* txn = session->Begin();
      Status us = db.large_objects().Unlink(txn, objs.front().oid);
      if (!us.ok()) return fail("unlink", us);
      Result<CommitTime> cs = session->Commit();
      if (!cs.ok()) return fail("commit", cs.status());
      objs.erase(objs.begin());
    }
    for (int r = 0; r < fs.recreate_per_epoch; ++r) {
      Result<LiveObject> obj = CreateChurnObject(
          db, kind, static_cast<uint64_t>(zipf.Sample(rng)),
          static_cast<uint8_t>(epoch));
      if (!obj.ok()) return fail("create", obj.status());
      objs.push_back(*obj);
    }
    // Vacuum: reclaim dead versions, teach the FSM this epoch's holes.
    vac = db.large_objects().Vacuum(db.Now());
    if (!vac.ok()) return fail("vacuum", vac.status());

    if (Status rs = reopen(); !rs.ok()) return fail("reopen", rs);
    Result<PassResult> pass = MeasureSeqRead(db, objs);
    if (!pass.ok()) return fail("epoch read", pass.status());
    std::string op = "epoch" + std::to_string(epoch) + "_read";
    run.RecordResult(op, pass->seconds);
    run.RecordValue(op, "seeks", static_cast<double>(pass->seeks));
    run.RecordValue(op, "mb_per_s", pass->mb_per_s());
    std::printf("%12s %-16s %10.3f s %10.1f MB/s %8llu seeks\n", label,
                op.c_str(), pass->seconds, pass->mb_per_s(),
                static_cast<unsigned long long>(pass->seeks));
    churned_s = pass->seconds;
  }

  // Online compaction + vacuum, then the after picture.
  Result<uint64_t> moved = db.large_objects().CompactAll();
  if (!moved.ok()) return fail("compact", moved.status());
  vac = db.large_objects().Vacuum(db.Now());
  if (!vac.ok()) return fail("vacuum", vac.status());
  StatsSnapshot maintenance = db.Stats();
  uint64_t relocated =
      SumCounter(maintenance, "lo.fchunk.pages_relocated") +
      SumCounter(maintenance, "lo.vseg.pages_relocated") +
      SumCounter(maintenance, "lo.vseg.store.pages_relocated");
  uint64_t reclaimed =
      SumCounter(maintenance, "lo.fchunk.pages_reclaimed") +
      SumCounter(maintenance, "lo.vseg.pages_reclaimed") +
      SumCounter(maintenance, "lo.vseg.store.pages_reclaimed");
  uint64_t fsm_hits = SumCounter(maintenance, "heap.fsm.hits");
  uint64_t fsm_misses = SumCounter(maintenance, "heap.fsm.misses");

  if (Status rs = reopen(); !rs.ok()) return fail("reopen", rs);
  Result<PassResult> compacted = MeasureSeqRead(db, objs);
  if (!compacted.ok()) return fail("compacted read", compacted.status());
  run.RecordResult("compacted_read", compacted->seconds);
  run.RecordValue("compacted_read", "seeks",
                  static_cast<double>(compacted->seeks));
  run.RecordValue("compacted_read", "mb_per_s", compacted->mb_per_s());
  run.RecordValue("compacted_read", "versions_relocated",
                  static_cast<double>(*moved));
  run.RecordValue("compacted_read", "pages_relocated",
                  static_cast<double>(relocated));
  run.RecordValue("compacted_read", "pages_reclaimed",
                  static_cast<double>(reclaimed));
  std::printf("%12s %-16s %10.3f s %10.1f MB/s %8llu seeks\n", label,
              "compacted", compacted->seconds, compacted->mb_per_s(),
              static_cast<unsigned long long>(compacted->seeks));

  double degradation_pct =
      fresh->seconds > 0
          ? (churned_s - fresh->seconds) / fresh->seconds * 100.0
          : 0.0;
  double restore_pct =
      fresh->seconds > 0
          ? (compacted->seconds - fresh->seconds) / fresh->seconds * 100.0
          : 0.0;
  run.RecordValue("summary", "degradation_pct", degradation_pct);
  run.RecordValue("summary", "restore_pct", restore_pct);
  run.RecordValue("summary", "fsm_hits", static_cast<double>(fsm_hits));
  run.RecordValue("summary", "fsm_misses", static_cast<double>(fsm_misses));
  std::printf(
      "%12s churn degraded seq read %+.1f%%; post-compaction %+.1f%% vs "
      "fresh\n\n",
      label, degradation_pct, restore_pct);

  if (gate.degradation_pct > 0 && degradation_pct < gate.degradation_pct) {
    std::fprintf(stderr,
                 "GATE FAIL %s: churn degraded seq read by %.1f%% "
                 "(expected >= %.1f%% — fragmentation did not manifest)\n",
                 label, degradation_pct, gate.degradation_pct);
    *gate_failed = true;
  }
  if (gate.restore_pct > 0 && restore_pct > gate.restore_pct) {
    std::fprintf(stderr,
                 "GATE FAIL %s: post-compaction seq read is %.1f%% over "
                 "fresh (expected <= %.1f%% — compaction did not restore "
                 "locality)\n",
                 label, restore_pct, gate.restore_pct);
    *gate_failed = true;
  }

  run.FinishConfig();
  Status cs = db.Close();
  if (!cs.ok()) return fail("close", cs);
  return 0;
}

int Main(int argc, char** argv) {
  // Peel off the gate flags before the shared parser sees them (it rejects
  // flags it does not know).
  GateSpec gate;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--gate-degradation-pct=", 0) == 0) {
      gate.degradation_pct = std::atof(arg.c_str() + 23);
    } else if (arg.rfind("--gate-restore-pct=", 0) == 0) {
      gate.restore_pct = std::atof(arg.c_str() + 19);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  BenchArgs args =
      ParseBenchArgs(static_cast<int>(passthrough.size()),
                     passthrough.data(), "fragmentation",
                     "/tmp/pglo_bench_frag",
                     "[--gate-degradation-pct=P] [--gate-restore-pct=P] ");
  int rc = std::system(("rm -rf '" + args.workdir + "'").c_str());
  (void)rc;
  const FragScale fs = FragScaleFor(args.quick);
  BenchRun run(args);

  std::printf("Fragmentation churn benchmark: %d objects, zipf cap %d "
              "units of %u bytes, %d epochs\n\n",
              fs.objects, fs.max_units, kUnit, fs.epochs);

  bool gate_failed = false;
  if (RunConfig("f-chunk", StorageKind::kFChunk, run, args, fs, gate,
                &gate_failed) != 0) {
    return 1;
  }
  if (RunConfig("v-segment", StorageKind::kVSegment, run, args, fs, gate,
                &gate_failed) != 0) {
    return 1;
  }

  std::printf(
      "Expected shape: seq-read time and device seeks climb epoch over "
      "epoch as\ncross-transaction overwrites scatter versions into "
      "free-space-map holes;\nCompactAll + Vacuum restores near-fresh "
      "times by rewriting live data in key\norder into fresh contiguous "
      "pages.\n");
  Status finish = run.Finish();
  if (!finish.ok()) {
    std::fprintf(stderr, "results write failed: %s\n",
                 finish.ToString().c_str());
    return 1;
  }
  rc = std::system(("rm -rf '" + args.workdir + "'").c_str());
  (void)rc;
  return gate_failed ? 1 : 0;
}

}  // namespace
}  // namespace bench
}  // namespace pglo

int main(int argc, char** argv) { return pglo::bench::Main(argc, argv); }
