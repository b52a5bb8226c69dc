// Shared pieces of the pglo benchmark program: arguments, timing samples,
// the in-memory span tracer, the metric report, deterministic content and
// the host-side measurements (bytes written, bytes on disk).

#ifndef LOBENCH_COMMON_H_
#define LOBENCH_COMMON_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/stats.h"

namespace lobench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time (user + system) of every thread of this process so far: the
/// benchmark's clients and the program's server and engine threads alike.
int64_t ProcessCpuNs();

/// While alive, runs every thread of this process on the CPU the creating
/// thread is on, so a client and its server thread hand requests to each
/// other on one core instead of waking another; the old CPU sets are
/// restored at the end. Threads started meanwhile inherit their creator's.
class PinToOneCpu {
 public:
  PinToOneCpu();
  ~PinToOneCpu();
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  std::vector<std::pair<int, cpu_set_t>> saved_;  ///< (thread id, old set)
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  ///< scratch space for databases, removed at exit
  std::string outdir;   ///< where the traced run writes its spans
  int threads = 4;      ///< generator threads / connections (nproc, max 4)
};

/// splitmix64: the benchmark's own mixing function, independent of the
/// program's PRNG so inputs stay the same if the program's changes.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
inline uint64_t Mix(uint64_t a, uint64_t b) { return Mix(a ^ Mix(b)); }
inline uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  return Mix(Mix(a, b), c);
}

/// Small seeded generator for the workload generators.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix(state_++); }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / (1ull << 53));
  }

 private:
  uint64_t state_;
};

/// Zipf(s) over [0, n): rank 0 is the hottest.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Content oracle: byte `pos` of the stream named `key` is a pure function
/// of (key, pos), so any byte range can be regenerated for comparison.
void FillContent(uint64_t key, uint64_t pos, uint8_t* out, size_t n);

/// Timing samples of one kind, optionally stamped with when they ended.
class Samples {
 public:
  /// Samples per block of the tail percentile: ten lie beyond its p99.
  static constexpr size_t kTailBlock = 1000;

  void Add(double v, int64_t at_ns = 0) {
    v_.push_back(v);
    at_.push_back(at_ns);
  }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    at_.insert(at_.end(), o.at_.begin(), o.at_.end());
  }
  size_t count() const { return v_.size(); }
  double Sum() const;
  /// Median; 0 when empty.
  double P50() const;
  /// Tail latency: the samples, in the order they ended, are cut into
  /// blocks of kTailBlock; this is the median over blocks of each block's
  /// 99th percentile, so ten samples lie beyond every block's p99 and a
  /// stall confined to a few blocks does not set the figure. Absent below
  /// kTailBlock samples.
  std::optional<double> P99() const;
  double Quantile(double q) const;

 private:
  std::vector<double> v_;
  std::vector<int64_t> at_;
};

/// Throughput: the median, over the whole seconds since `start`, of the
/// events (`done_ns`) in each second. 0 when no second is whole.
double MedianPerSecond(const std::vector<int64_t>& done_ns, int64_t start,
                       int64_t end);

/// One span recorded by the traced run. Spans are recorded only in the
/// benchmark's own code, around its calls into a module's public function.
struct Span {
  const char* name;
  uint32_t id;
  uint32_t parent;  ///< 0 = root (one transaction / one operation)
  int64_t start_ns;
  int64_t end_ns;
};

/// Per-thread span buffer: no locking, merged after the threads join.
/// Disabled tracers record nothing and read no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled = false, uint32_t thread_tag = 0)
      : enabled_(enabled), next_id_(thread_tag << 24) {
    // Growing the buffer mid-transaction would stall inside a span gap.
    if (enabled_) spans_.reserve(1 << 18);
  }
  bool enabled() const { return enabled_; }
  /// Starts a span; returns its id (0 when disabled).
  uint32_t Begin(const char* name, uint32_t parent);
  void End(uint32_t id);
  /// Records a span whose bounds the caller measured.
  void Record(const char* name, uint32_t parent, int64_t start, int64_t end);
  const std::vector<Span>& spans() const { return spans_; }
  void Merge(const Tracer& other);

 private:
  bool enabled_;
  uint32_t next_id_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scoped {
 public:
  Scoped(Tracer* t, const char* name, uint32_t parent)
      : t_(t), id_(t->enabled() ? t->Begin(name, parent) : 0) {}
  ~Scoped() {
    if (id_ != 0) t_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  uint32_t id_;
};

/// What the traced run derives from its spans.
struct TraceAnalysis {
  std::map<std::string, Samples> self_us;  ///< per span name, self time
  std::map<std::string, Samples> total_us;  ///< per span name, duration
  /// Per root span: the share of its duration its children cover.
  Samples coverage;
  uint64_t roots = 0;
  uint64_t roots_outside_bound = 0;
  /// Share of all root time no child span covers.
  double uncovered_share = 0;
};

/// The span-coverage bound (README, "Traced run"): the children of a root
/// span (one transaction or operation) leave at most
/// max(kMaxUncoveredShare of its time, kMaxUncoveredNs) uncovered; at most
/// kMaxRootsOutsideShare of the roots may break that, and at most
/// kMaxUncoveredShareAll of all root time is uncovered. A span missing
/// around some call leaves every root of its kind uncovered; a preemption
/// of the benchmark thread between two calls leaves a rare single gap
/// (1.3 ms once in about 4,000 served transactions).
constexpr double kMaxUncoveredShare = 0.10;
constexpr int64_t kMaxUncoveredNs = 1'000'000;
constexpr double kMaxRootsOutsideShare = 0.005;
constexpr double kMaxUncoveredShareAll = 0.01;

TraceAnalysis Analyze(const std::vector<Span>& spans);

/// Writes spans as Chrome trace-event JSON.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// The metrics of BENCHMARK.json, in its order: the untraced run's JSON
/// result holds exactly kEndToEnd, the traced run's exactly kPerLayer.
/// Every workload measures every one of them.
extern const std::vector<std::string> kEndToEnd;
extern const std::vector<std::string> kPerLayer;

/// The run's result: metrics in print order, plus the verdict.
class Report {
 public:
  /// Records a metric. Metrics the manifest does not list for the run's
  /// mode appear in the table only.
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples = 0);
  /// Records a failed correctness check (the run then reports
  /// correct=false).
  void Fail(const std::string& what);
  /// Counts an operation the program failed (`failed`); `correct` speaks
  /// only of the operations that did not fail.
  void OperationFailed(const std::string& what);
  bool correct() const { return failures_.empty(); }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Fails the run if a metric the manifest lists for this mode was not
  /// measured, then prints a human-readable table and, as the last line,
  /// the JSON result.
  void Print(const std::string& workload, bool trace);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  const Entry* Find(const std::string& name) const;
  std::vector<Entry> metrics_;
  std::vector<std::string> failures_;
};

/// Prints each span name's self time, reports the coverage metrics, and
/// fails the run when the coverage bound is broken.
void ReportCoverage(const TraceAnalysis& an, Report* report);

/// Prints the commits of each whole second since `start` (stderr), so a
/// run's throughput profile is visible.
void PrintPerSecond(const std::vector<int64_t>& done_ns, int64_t start);

/// Bytes this process caused to be written to storage so far
/// (/proc/self/io write_bytes: counted when pages are dirtied).
uint64_t StorageBytesWritten();

/// Bytes allocated on disk under `dir` (st_blocks, recursively).
uint64_t BytesOnDisk(const std::string& dir);

void RemoveTree(const std::string& dir);

/// syncfs(2) on the filesystem holding `dir`.
void SyncFilesystem(const std::string& dir);

/// Counter and histogram deltas between two snapshots of one registry.
class StatsDelta {
 public:
  StatsDelta() = default;
  StatsDelta(const pglo::StatsSnapshot& before,
             const pglo::StatsSnapshot& after);
  /// Sum of another delta (several databases in one workload).
  void Add(const StatsDelta& other);
  double Counter(const std::string& name) const;
  /// Sum of counters named prefix*suffix.
  double Sum(const std::string& prefix, const std::string& suffix) const;
  double HistCount(const std::string& name) const;
  double HistSumNs(const std::string& name) const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> hist_count_;
  std::map<std::string, double> hist_sum_;
};

/// The layer metrics every workload reads from Database::Stats() and the
/// commit log: txn.*, storage.*, heap.*, btree.*, smgr.*, device.*, ufs.*.
/// `commits` = transactions committed in the window, `lookups` = the
/// workload's lookup operations (btree.descents_per_lookup's base).
struct CounterWindow {
  StatsDelta delta;
  uint64_t clog_fsyncs = 0;
  uint64_t commits = 0;
  uint64_t txns = 0;
  uint64_t lookups = 0;
};
void ReportCounterMetrics(const CounterWindow& w, Report* report);

/// Ratio with a zero base reported as 0.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace lobench

#endif  // LOBENCH_COMMON_H_
