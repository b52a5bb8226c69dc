#ifndef PGLO_BENCH_HARNESS_H_
#define PGLO_BENCH_HARNESS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "obs/profiler.h"
#include "obs/trace_export.h"
#include "workload/frames.h"

namespace pglo {
namespace bench {

/// §9.1: "a 51.2MB large object was created and then logically considered
/// a group of 12,500 frames, each of size 4096 bytes."
constexpr uint64_t kFrameSize = 4096;
constexpr uint64_t kNumFrames = 12'500;
constexpr uint64_t kObjectSize = kFrameSize * kNumFrames;  // 51,200,000
/// "Read 2,500 frames (10MB) sequentially." / "Read 250 frames (1MB) ..."
constexpr uint64_t kSeqFrames = 2'500;
constexpr uint64_t kRandFrames = 250;

constexpr uint64_t kCreateSeed = 0xBEEF;

/// One column of Figures 1–3: a large-object implementation configuration.
struct BenchConfig {
  std::string name;          ///< column label, paper style
  StorageKind kind = StorageKind::kFChunk;
  std::string codec;         ///< "", "rle" (≈30 %), or "lzss" (≈50 %)
  uint8_t smgr = kSmgrDisk;
  uint32_t chunk_size = 8000;
  /// v-segment: the paper's object was created frame-by-frame, so its
  /// segments are one frame long.
  uint32_t max_segment = static_cast<uint32_t>(kFrameSize);
};

/// The six §9 benchmark operations.
enum class Op {
  kSeqRead,     ///< read 2,500 frames sequentially (10 MB)
  kSeqWrite,    ///< replace 2,500 frames sequentially
  kRandRead,    ///< read 250 random frames (1 MB)
  kRandWrite,   ///< replace 250 random frames
  kLocalRead,   ///< read 250 frames with 80/20 locality
  kLocalWrite,  ///< replace 250 frames with 80/20 locality
};

const char* OpName(Op op);
bool OpIsWrite(Op op);

/// Calibrated 1992-scale options (device models, 10 MB caches, CPU MIPS).
DatabaseOptions PaperOptions(const std::string& dir);

/// Workload sizing. Full scale is the paper's; quick scale (1/10th) exists
/// for the CI gate in tools/check.sh, which needs a bench run in seconds,
/// not minutes. Quick results are written to a separate `_quick` JSON so
/// they never collide with the full-run trajectory files.
struct WorkloadScale {
  uint64_t num_frames = kNumFrames;    ///< object size in frames
  uint64_t seq_frames = kSeqFrames;    ///< frames per sequential op
  uint64_t rand_frames = kRandFrames;  ///< frames per random/local op
};
inline WorkloadScale ScaleFor(bool quick) {
  if (!quick) return WorkloadScale{};
  return WorkloadScale{kNumFrames / 10, kSeqFrames / 10, kRandFrames / 10};
}

/// Drives one database instance through object creation and the benchmark
/// operations, measuring simulated elapsed time. The runner connects one
/// backend session and runs every operation through it.
class LoBenchRunner {
 public:
  explicit LoBenchRunner(Database* db, WorkloadScale scale = WorkloadScale{})
      : db_(db), scale_(scale), session_(db->Connect()) {}

  /// Creates the 51.2 MB object frame by frame (one transaction), as the
  /// paper did. Returns its oid.
  Result<Oid> CreateObject(const BenchConfig& config);

  /// Runs one benchmark operation in its own transaction; returns
  /// simulated elapsed seconds.
  Result<double> RunOp(Oid oid, Op op, uint64_t seed);

  /// Storage accounting for Figure 1.
  Result<LargeObject::StorageFootprint> Footprint(Oid oid);

 private:
  Database* db_;
  WorkloadScale scale_;
  std::unique_ptr<Session> session_;
};

/// Renders a Figure 2/3-style table: rows = operations, columns = configs,
/// cells = elapsed seconds with the given precision.
std::string FormatTable(const std::string& title,
                        const std::vector<std::string>& columns,
                        const std::vector<std::string>& row_labels,
                        const std::vector<std::vector<double>>& cells);

/// Renders the observability companion to a figure: one column per config,
/// rows for the physical work each layer reported (buffer-pool hit rate,
/// storage-manager block I/O, device seeks/transfers). Snapshots come from
/// Database::Stats(); pass one per config, in column order.
std::string FormatStatsTable(const std::string& title,
                             const std::vector<std::string>& columns,
                             const std::vector<StatsSnapshot>& snapshots);

/// Shared flag handling for the benches:
///   [--no-stats] [--quick] [--profile] [--trace=FILE] [--json=FILE]
///   [--no-json] [--readahead=N] [workdir]
/// `--help` prints the usage and exits 0; an unknown `--flag` prints it and
/// exits 2. Either way nothing runs and no JSON is written. A bench that
/// peels off flags of its own names them in `extra_usage`.
struct BenchArgs {
  std::string bench_name;  ///< e.g. "figure1"; names the default JSON file
  std::string workdir;
  bool stats = true;
  bool quick = false;    ///< 1/10th workload (the check.sh gate)
  bool profile = false;  ///< print per-config profiler attribution
  /// Read-ahead window override; -1 = keep DatabaseOptions' default.
  /// `--readahead=0` reproduces the pre-vectored-I/O per-block command
  /// sequence (used to verify simulated-time compatibility).
  int readahead = -1;
  std::string trace_path;  ///< Chrome trace-event output; empty = off
  std::string json_path;   ///< machine-readable results; empty = off
};
BenchArgs ParseBenchArgs(int argc, char** argv, const std::string& bench_name,
                         const std::string& default_workdir,
                         const char* extra_usage = "");

/// Config metadata for BenchRun::StartConfig, derived from a BenchConfig.
std::map<std::string, std::string> ConfigInfo(const BenchConfig& config);

/// Machine-readable emitter + trace/profiler wiring shared by every bench.
///
/// Usage, per configuration (each one typically a fresh Database):
///   BenchRun run(args);
///   run.StartConfig("f-chunk", &db, {{"kind", "fchunk"}});
///   run.RecordResult("create", seconds);
///   run.RecordValue("create", "data_bytes", fp.data_bytes);
///   run.FinishConfig();
///   ...
///   run.Finish();  // writes BENCH_<name>.json, closes the trace
///
/// StartConfig attaches the trace writer (one Chrome "process" per config,
/// since each config's SimClock restarts at zero) and, with --profile, a
/// fresh Profiler to the database's registry; FinishConfig detaches them,
/// snapshots the config's counters, and prints the attribution report.
/// A null `db` (e.g. Figure 3's special-program baseline, which runs on a
/// bare device model) records results without any sink wiring.
///
/// The JSON schema ("pglo-bench-v1") is documented in DESIGN.md §9 and
/// consumed by tools/bench_compare.
class BenchRun {
 public:
  explicit BenchRun(const BenchArgs& args);
  ~BenchRun();

  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  /// Begins a configuration. `info` is free-form metadata emitted with the
  /// config (kind, codec, smgr, chunk_size, ...).
  void StartConfig(const std::string& name, Database* db,
                   const std::map<std::string, std::string>& info = {});

  /// Records one operation's simulated elapsed seconds under the current
  /// config.
  void RecordResult(const std::string& op, double seconds);

  /// Records a named numeric side-value (storage bytes, ratios) on the
  /// (config, op) row, creating the row if RecordResult was not called.
  void RecordValue(const std::string& op, const std::string& key,
                   double value);

  /// Ends the current configuration: detaches sinks, snapshots counters,
  /// prints the profiler report when --profile is on.
  void FinishConfig();

  /// Writes the JSON results file and finalizes the trace. Idempotent; the
  /// destructor calls it best-effort.
  Status Finish();

 private:
  struct ResultRow {
    std::string config;
    std::string op;
    double simulated_seconds = 0.0;
    bool has_seconds = false;
    // Sorted: stable JSON output.
    std::map<std::string, double> values;
  };
  struct ConfigEntry {
    std::string name;
    std::map<std::string, std::string> info;
  };

  ResultRow* RowFor(const std::string& op);
  Status WriteJson() const;

  BenchArgs args_;
  std::unique_ptr<ChromeTraceWriter> trace_;
  std::unique_ptr<Profiler> profiler_;
  TeeSink tee_;
  Database* current_db_ = nullptr;
  std::string current_config_;
  std::vector<ConfigEntry> configs_;
  std::vector<ResultRow> rows_;
  std::vector<std::pair<std::string, StatsSnapshot>> snapshots_;
  bool finished_ = false;
};

}  // namespace bench
}  // namespace pglo

#endif  // PGLO_BENCH_HARNESS_H_
