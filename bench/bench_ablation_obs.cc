// Ablation F: observability overhead (flight recorder + wait
// instrumentation). Runs the identical f-chunk workload (create, then
// repeated sequential-read / random-read / sequential-write passes) under
// three configurations — everything off (no recorder, no wait
// instrumentation); the default always-on settings; and aggressive
// settings (10x-finer snapshot sampling, a slow-op budget low enough to
// capture every single operation's span tree, and a zero wait-event
// threshold so every contended wait hits the event ring) — and checks the
// observability layer's two contracts:
//
//   1. Simulated time is BIT-IDENTICAL across all three. The recorder
//      observes completed spans, and wait instrumentation records WALL
//      time; neither ever advances the SimClock, so every reported
//      simulated duration, and the final clock reading itself, must match
//      to the nanosecond. Any difference is a bug and fails the bench
//      (non-zero exit) — this is the property the check.sh obs gate
//      enforces.
//   2. Wall-clock overhead of the default always-on configuration is small
//      (the ≤5% budget that justifies shipping it enabled). Reported
//      (wall_overhead_pct on the "total" row, with the aggressive config's
//      worst case alongside); gated only when --gate-overhead-pct=N is
//      passed (check.sh does, with N=5): wall time on shared CI is noisy,
//      so the gate uses the best-of-passes estimator.
//
// Wall methodology: all three databases are opened and their objects
// created up front (creation doubles as warmup — allocator, caches, and
// first touch of every recorder ring slot); then measurement passes
// INTERLEAVE the configurations, so a slow system phase taxes all three
// equally instead of whichever config it happened to land on; the reported
// time per config is its fastest pass, the estimator least perturbed by
// the scheduler.
//
// Run: bench_ablation_obs [--no-stats] [--quick] [--json=FILE]
//                         [--gate-overhead-pct=N] [workdir]
// Results are written to BENCH_ablation_obs[_quick].json (pglo-bench-v1
// schema). The committed baseline in bench/baselines/ guards the absolute
// simulated times against behavioural drift.

#include <ctime>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/harness.h"

namespace pglo {
namespace bench {
namespace {

enum class Mode { kOff, kDefault, kMax };

struct ModeSpec {
  Mode mode;
  const char* label;
  const char* subdir;
};

constexpr ModeSpec kModes[] = {
    {Mode::kOff, "recorder-off", "rec_off"},
    {Mode::kDefault, "recorder-on", "rec_on"},
    {Mode::kMax, "recorder-max", "rec_max"},
};
constexpr size_t kNumModes = 3;
constexpr uint64_t kPasses = 4;
constexpr uint64_t kRepsPerPass = 3;

struct ConfigState {
  std::unique_ptr<Database> db;
  std::unique_ptr<LoBenchRunner> runner;
  Oid oid = 0;
  std::vector<double> op_seconds;  // create, seq read, rand read, seq write
  uint64_t final_sim_ns = 0;
  double wall_seconds = 1e300;  // min over passes
  double cpu_seconds = 1e300;   // min over passes
  uint64_t spans = 0;
  uint64_t deltas = 0;
  uint64_t slow_ops = 0;
};

const char* kOpLabels[] = {"create", "seq_read", "rand_read", "seq_write"};

int OpenAndCreate(const BenchArgs& args, const WorkloadScale& scale,
                  const ModeSpec& spec, ConfigState* state) {
  DatabaseOptions options = PaperOptions(args.workdir + "/" + spec.subdir);
  options.enable_stats = args.stats;
  options.enable_flight_recorder = spec.mode != Mode::kOff;
  options.enable_wait_instrumentation = spec.mode != Mode::kOff;
  if (spec.mode == Mode::kMax) {
    // Worst case: sample every 100 simulated ms, capture every operation
    // as "slow" (1 simulated µs budget), and append an event for EVERY
    // contended wait, so the measured overhead includes tree building,
    // delta sampling, and wait-event appends on every op, not just ring
    // appends.
    options.recorder_options.snapshot_interval_ns = 100'000'000;
    options.recorder_options.slow_op_budget_ns = 1'000;
    options.wait_event_threshold_ns = 0;
  }
  state->db = std::make_unique<Database>();
  Status s = state->db->Open(options);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  state->runner = std::make_unique<LoBenchRunner>(state->db.get(), scale);
  BenchConfig config{spec.label, StorageKind::kFChunk, "", kSmgrDisk};
  SimTimer create_timer(&state->db->clock());
  Result<Oid> oid = state->runner->CreateObject(config);
  if (!oid.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 oid.status().ToString().c_str());
    return 1;
  }
  state->oid = *oid;
  state->op_seconds.push_back(create_timer.ElapsedSeconds());
  return 0;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int MeasurePass(ConfigState* state, uint64_t pass) {
  double cpu_begin = ProcessCpuSeconds();
  auto begin = std::chrono::steady_clock::now();
  for (uint64_t rep = 0; rep < kRepsPerPass; ++rep) {
    uint64_t salt = (pass * kRepsPerPass + rep) * 16;
    Result<double> seq = state->runner->RunOp(state->oid, Op::kSeqRead,
                                              7 + salt);
    Result<double> rand = state->runner->RunOp(state->oid, Op::kRandRead,
                                               8 + salt);
    Result<double> wr = state->runner->RunOp(state->oid, Op::kSeqWrite,
                                             9 + salt);
    if (!seq.ok() || !rand.ok() || !wr.ok()) {
      std::fprintf(stderr, "bench failed\n");
      return 1;
    }
    if (pass == 0 && rep == 0) {
      state->op_seconds.push_back(*seq);
      state->op_seconds.push_back(*rand);
      state->op_seconds.push_back(*wr);
    }
  }
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              begin)
                    .count();
  state->wall_seconds = std::min(state->wall_seconds, secs);
  state->cpu_seconds =
      std::min(state->cpu_seconds, ProcessCpuSeconds() - cpu_begin);
  return 0;
}

int Main(int argc, char** argv) {
  // Extract the gate flag before handing argv to the shared harness
  // parser (which rejects flags it does not know).
  double gate_overhead_pct = -1.0;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--gate-overhead-pct=", 20) == 0) {
      gate_overhead_pct = std::atof(argv[i] + 20);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  BenchArgs args = ParseBenchArgs(argc, argv, "ablation_obs",
                                  "/tmp/pglo_bench_ablF",
                                  "[--gate-overhead-pct=P] ");
  const std::string& workdir = args.workdir;
  int rc = std::system(("rm -rf '" + workdir + "'").c_str());
  (void)rc;
  const WorkloadScale scale = ScaleFor(args.quick);
  BenchRun run(args);

  std::printf("Ablation F: flight-recorder overhead, f-chunk object\n\n");

  ConfigState state[kNumModes];
  for (size_t m = 0; m < kNumModes; ++m) {
    if (OpenAndCreate(args, scale, kModes[m], &state[m]) != 0) return 1;
  }
  for (uint64_t pass = 0; pass < kPasses; ++pass) {
    for (size_t m = 0; m < kNumModes; ++m) {
      if (MeasurePass(&state[m], pass) != 0) return 1;
    }
  }
  for (size_t m = 0; m < kNumModes; ++m) {
    ConfigState& st = state[m];
    st.final_sim_ns = st.db->clock().NowNanos();
    if (st.db->recorder() != nullptr) {
      st.spans = st.db->recorder()->total_spans();
      st.deltas = st.db->recorder()->total_deltas();
      st.slow_ops = st.db->recorder()->total_slow_ops();
    }
    BenchConfig config{kModes[m].label, StorageKind::kFChunk, "", kSmgrDisk};
    auto info = ConfigInfo(config);
    info["flight_recorder"] = kModes[m].mode == Mode::kOff ? "off" : "on";
    info["wait_instrumentation"] =
        kModes[m].mode == Mode::kOff
            ? "off"
            : (kModes[m].mode == Mode::kMax ? "max" : "default");
    run.StartConfig(kModes[m].label, st.db.get(), info);
    for (size_t i = 0; i < st.op_seconds.size(); ++i) {
      run.RecordResult(kOpLabels[i], st.op_seconds[i]);
    }
    run.FinishConfig();
  }
  const ConfigState& off = state[0];
  const ConfigState& dflt = state[1];
  const ConfigState& max = state[2];

  std::printf("%12s %12s %12s %12s %10s\n", "op", "rec off s", "rec on s",
              "rec max s", "identical");
  bool identical = off.final_sim_ns == dflt.final_sim_ns &&
                   off.final_sim_ns == max.final_sim_ns;
  for (size_t i = 0; i < off.op_seconds.size(); ++i) {
    bool same = off.op_seconds[i] == dflt.op_seconds[i] &&
                off.op_seconds[i] == max.op_seconds[i];
    identical = identical && same;
    std::printf("%12s %12.3f %12.3f %12.3f %10s\n", kOpLabels[i],
                off.op_seconds[i], dflt.op_seconds[i], max.op_seconds[i],
                same ? "yes" : "NO");
  }
  std::printf("%12s %12" PRIu64 " %12" PRIu64 " %12" PRIu64
              " %10s   (final sim ns)\n",
              "", off.final_sim_ns, dflt.final_sim_ns, max.final_sim_ns,
              identical ? "yes" : "NO");

  auto overhead = [&](const ConfigState& o) {
    return off.wall_seconds > 0.0
               ? (o.wall_seconds - off.wall_seconds) / off.wall_seconds * 100.0
               : 0.0;
  };
  double default_pct = overhead(dflt);
  double max_pct = overhead(max);
  std::printf(
      "\ndefault recorder retained %" PRIu64 " spans, %" PRIu64
      " deltas, %" PRIu64 " slow ops; max config %" PRIu64 " slow ops\n"
      "wall (best of %" PRIu64 " interleaved passes): off %.3fs, "
      "default %.3fs (%+.1f%%), max %.3fs (%+.1f%%)\n"
      "cpu:  off %.3fs, default %.3fs (%+.1f%%), max %.3fs (%+.1f%%)\n",
      dflt.spans, dflt.deltas, dflt.slow_ops, max.slow_ops, kPasses,
      off.wall_seconds, dflt.wall_seconds, default_pct, max.wall_seconds,
      max_pct,
      off.cpu_seconds, dflt.cpu_seconds,
      (dflt.cpu_seconds - off.cpu_seconds) / off.cpu_seconds * 100.0,
      max.cpu_seconds,
      (max.cpu_seconds - off.cpu_seconds) / off.cpu_seconds * 100.0);
  // Cross-run numbers live on their own (database-less) config row.
  run.StartConfig("overhead", nullptr);
  run.RecordValue("total", "wall_overhead_pct", default_pct);
  run.RecordValue("total", "wall_overhead_max_pct", max_pct);
  run.RecordValue("total", "cpu_overhead_pct",
                  (dflt.cpu_seconds - off.cpu_seconds) / off.cpu_seconds *
                      100.0);
  run.RecordValue("total", "recorder_spans", static_cast<double>(dflt.spans));
  run.RecordValue("total", "recorder_deltas",
                  static_cast<double>(dflt.deltas));
  run.RecordValue("total", "recorder_slow_ops",
                  static_cast<double>(max.slow_ops));
  run.FinishConfig();

  Status finish = run.Finish();
  if (!finish.ok()) {
    std::fprintf(stderr, "results write failed: %s\n",
                 finish.ToString().c_str());
    return 1;
  }
  for (size_t m = 0; m < kNumModes; ++m) {
    // The runner's Session releases its activity slot into the database's
    // BackendActivity table — it must go before the database does.
    state[m].runner.reset();
    state[m].db.reset();
  }
  rc = std::system(("rm -rf '" + workdir + "'").c_str());
  (void)rc;
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: recorder-on simulated time differs from "
                 "recorder-off — the recorder advanced the clock\n");
    return 1;
  }
  std::printf(
      "\nSimulated time bit-identical with recorder and wait "
      "instrumentation on: the\nblack box is free in simulated time. The "
      "always-on default costs %.1f%% wall\nclock (budget: 5%%); capturing "
      "every op's span tree costs %.1f%%.\n",
      default_pct, max_pct);
  if (gate_overhead_pct >= 0.0 && default_pct > gate_overhead_pct) {
    std::fprintf(stderr,
                 "FAIL: default observability wall overhead %.1f%% exceeds "
                 "the %.1f%% gate\n",
                 default_pct, gate_overhead_pct);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pglo

int main(int argc, char** argv) { return pglo::bench::Main(argc, argv); }
