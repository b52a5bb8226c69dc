#include "common.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unordered_map>

namespace lobench {

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  size_t i = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

void FillContent(uint64_t key, uint64_t pos, uint8_t* out, size_t n) {
  size_t i = 0;
  while (i < n) {
    uint64_t word = Mix(key, (pos + i) / 8);
    for (uint64_t b = (pos + i) % 8; b < 8 && i < n; ++b, ++i) {
      out[i] = static_cast<uint8_t>(word >> (8 * b));
    }
  }
}

double Samples::Sum() const {
  double s = 0;
  for (double v : v_) s += v;
  return s;
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> sorted = v_;
  std::sort(sorted.begin(), sorted.end());
  // Linear interpolation between closest ranks.
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::P50() const { return Quantile(0.5); }

std::optional<double> Samples::P99() const {
  if (v_.size() < kTailBlock) return std::nullopt;
  std::vector<size_t> order(v_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return at_[a] < at_[b]; });
  Samples block_p99;
  for (size_t b = 0; b + kTailBlock <= order.size(); b += kTailBlock) {
    Samples block;
    for (size_t i = b; i < b + kTailBlock; ++i) block.Add(v_[order[i]]);
    block_p99.Add(block.Quantile(0.99));
  }
  return block_p99.P50();
}

double MedianPerSecond(const std::vector<int64_t>& done_ns, int64_t start,
                       int64_t end) {
  const size_t whole = static_cast<size_t>((end - start) / 1'000'000'000);
  std::vector<double> per(whole, 0);
  for (int64_t t : done_ns) {
    size_t i = static_cast<size_t>((t - start) / 1'000'000'000);
    if (t >= start && i < whole) ++per[i];
  }
  Samples s;
  for (double v : per) s.Add(v);
  return s.P50();
}

uint32_t Tracer::Begin(const char* name, uint32_t parent) {
  uint32_t id = ++next_id_;
  spans_.push_back(Span{name, id, parent, NowNs(), 0});
  return id;
}

void Tracer::End(uint32_t id) {
  int64_t now = NowNs();
  // The span being ended is almost always the most recent open one.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = now;
      return;
    }
  }
}

void Tracer::Record(const char* name, uint32_t parent, int64_t start,
                    int64_t end) {
  if (!enabled_) return;
  spans_.push_back(Span{name, ++next_id_, parent, start, end});
}

void Tracer::Merge(const Tracer& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

TraceAnalysis Analyze(const std::vector<Span>& spans) {
  TraceAnalysis out;
  // Children of one span run one after another on one thread, so the part
  // of a span they cover is the sum of their durations.
  std::unordered_map<uint32_t, int64_t> child_ns;
  int64_t root_ns = 0, uncovered_ns = 0;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (const Span& s : spans) {
    int64_t dur = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    int64_t covered = it == child_ns.end() ? 0 : it->second;
    out.total_us[s.name].Add(static_cast<double>(dur) / 1e3);
    out.self_us[s.name].Add(static_cast<double>(dur - covered) / 1e3);
    if (s.parent == 0) {
      out.coverage.Add(dur > 0 ? static_cast<double>(covered) / dur : 1.0);
      ++out.roots;
      const int64_t gap = dur - covered;
      const int64_t allowed = std::max(
          static_cast<int64_t>(kMaxUncoveredShare * static_cast<double>(dur)),
          kMaxUncoveredNs);
      if (gap < 0 || gap > allowed) ++out.roots_outside_bound;
      root_ns += dur;
      uncovered_ns += gap;
    }
  }
  out.uncovered_share =
      root_ns > 0 ? static_cast<double>(uncovered_ns) / root_ns : 0;
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) base = std::min(base, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u}}",
                 i == 0 ? "" : ",", s.name, s.id >> 24,
                 static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

const std::vector<std::string> kEndToEnd = {
    "read_cpu_ms_per_mb",
    "stored_bytes_per_user_byte",
    "written_bytes_per_user_byte",
    "setup_s",
};

const std::vector<std::string> kPerLayer = {
    "client.round_trips_per_txn",
    "db.begin_us",
    "db.commit_us",
    "txn.clog_fsyncs_per_read_txn",
    "txn.clog_fsyncs_per_commit",
    "txn.data_syncs_per_commit",
    "txn.commit_group_mean",
    "txn.commit_wait_ms_per_commit",
    "txn.clog_mutex_acquires_per_txn",
    "storage.hit_rate",
    "storage.misses",
    "storage.evictions",
    "storage.readahead_pages",
    "storage.writebacks_per_commit",
    "storage.latch_waits_per_txn",
    "heap.fsm_hit_rate",
    "btree.descents_per_lookup",
    "smgr.blocks_read",
    "smgr.blocks_written",
    "smgr.coalesced_runs",
    "smgr.worm_cache_hit_rate",
    "device.seeks",
    "device.blocks_transferred",
    "ufs.cache_hit_rate",
    "inversion.index_probes_per_resolve",
    "trace.overhead_pct",
    "trace.span_coverage_min",
    "trace.uncovered_share",
    "trace.roots_outside_bound",
};

int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

PinToOneCpu::PinToOneCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const int tid = std::atoi(entry.path().filename().c_str());
    cpu_set_t old;
    if (tid <= 0 || sched_getaffinity(tid, sizeof(old), &old) != 0) continue;
    if (sched_setaffinity(tid, sizeof(one), &one) == 0) {
      saved_.emplace_back(tid, old);
    }
  }
}

PinToOneCpu::~PinToOneCpu() {
  for (const auto& [tid, old] : saved_) {
    (void)sched_setaffinity(tid, sizeof(old), &old);
  }
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not a finite number");
    value = 0;
  }
  metrics_.push_back(Entry{name, value, unit, samples});
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

void Report::OperationFailed(const std::string& what) {
  if (failed++ < 8) std::fprintf(stderr, "operation failed: %s\n", what.c_str());
}

const Report::Entry* Report::Find(const std::string& name) const {
  for (const Entry& e : metrics_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

namespace {

std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::Print(const std::string& workload, bool trace) {
  const std::vector<std::string>& listed = trace ? kPerLayer : kEndToEnd;
  for (const std::string& name : listed) {
    if (Find(name) == nullptr) Fail("metric " + name + " was not measured");
  }
  std::printf("workload %s (%s): attempted %llu, failed %llu, %s\n",
              workload.c_str(), trace ? "traced" : "untraced",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct() ? "all checks passed" : "CHECKS FAILED");
  std::printf("  %-40s %16s  %-8s %s\n", "metric", "value", "unit",
              "samples");
  for (const Entry& e : metrics_) {
    const bool in_json =
        std::find(listed.begin(), listed.end(), e.name) != listed.end();
    std::printf("  %-40s %16.6g  %-8s %-8s%s\n", e.name.c_str(), e.value,
                e.unit.c_str(),
                e.samples > 0 ? std::to_string(e.samples).c_str() : "-",
                in_json ? "" : " (table only)");
  }
  for (const std::string& f : failures_) {
    std::printf("  failed check: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : listed) {
    const Entry* e = Find(name);
    if (e == nullptr) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + e->name + "\": {\"value\": " + Num(e->value) +
            ", \"unit\": \"" + e->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintPerSecond(const std::vector<int64_t>& done_ns, int64_t start) {
  std::vector<int> per;
  for (int64_t t : done_ns) {
    size_t i = static_cast<size_t>((t - start) / 1'000'000'000);
    if (i >= per.size()) per.resize(i + 1);
    ++per[i];
  }
  std::fprintf(stderr, "# commits per second:");
  for (int v : per) std::fprintf(stderr, " %d", v);
  std::fprintf(stderr, "\n");
}

uint64_t StorageBytesWritten() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "write_bytes:") return value;
  }
  return 0;
}

uint64_t BytesOnDisk(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    struct stat st;
    if (::lstat(it->path().c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_blocks) * 512;
    }
  }
  return total;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

StatsDelta::StatsDelta(const pglo::StatsSnapshot& before,
                       const pglo::StatsSnapshot& after) {
  for (const auto& [name, value] : after.counters) {
    counters_[name] =
        static_cast<double>(value) - static_cast<double>(before.Value(name));
  }
  std::map<std::string, const pglo::StatsSnapshot::HistogramEntry*> prior;
  for (const auto& h : before.histograms) prior[h.name] = &h;
  for (const auto& h : after.histograms) {
    auto it = prior.find(h.name);
    double c0 = it == prior.end() ? 0 : static_cast<double>(it->second->count);
    double s0 = it == prior.end() ? 0 : static_cast<double>(it->second->sum_ns);
    hist_count_[h.name] = static_cast<double>(h.count) - c0;
    hist_sum_[h.name] = static_cast<double>(h.sum_ns) - s0;
  }
}

void StatsDelta::Add(const StatsDelta& other) {
  for (const auto& [k, v] : other.counters_) counters_[k] += v;
  for (const auto& [k, v] : other.hist_count_) hist_count_[k] += v;
  for (const auto& [k, v] : other.hist_sum_) hist_sum_[k] += v;
}

namespace {

double Lookup(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

}  // namespace

double StatsDelta::Counter(const std::string& name) const {
  return Lookup(counters_, name);
}

double StatsDelta::Sum(const std::string& prefix,
                       const std::string& suffix) const {
  double total = 0;
  for (const auto& [name, value] : counters_) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value;
    }
  }
  return total;
}

double StatsDelta::HistCount(const std::string& name) const {
  return Lookup(hist_count_, name);
}

double StatsDelta::HistSumNs(const std::string& name) const {
  return Lookup(hist_sum_, name);
}

void ReportCoverage(const TraceAnalysis& an, Report* r) {
  std::printf("span self time (us)            count   p50 total    p50 self"
              "   self share\n");
  double all_self = 0;
  for (const auto& [name, s] : an.self_us) all_self += s.Sum();
  for (const auto& [name, s] : an.self_us) {
    std::printf("  %-28s %7zu %11.2f %11.2f %11.4f\n", name.c_str(),
                s.count(), an.total_us.at(name).P50(), s.P50(),
                Ratio(s.Sum(), all_self));
  }
  r->Metric("trace.span_coverage_min", an.coverage.Quantile(0), "ratio",
            an.roots);
  r->Metric("trace.uncovered_share", an.uncovered_share, "ratio", an.roots);
  r->Metric("trace.roots_outside_bound",
            static_cast<double>(an.roots_outside_bound), "count", an.roots);
  if (static_cast<double>(an.roots_outside_bound) >
      kMaxRootsOutsideShare * static_cast<double>(an.roots)) {
    r->Fail(std::to_string(an.roots_outside_bound) + " of " +
            std::to_string(an.roots) +
            " traced roots leave more time uncovered by their spans than "
            "the coverage bound allows");
  }
  if (an.uncovered_share > kMaxUncoveredShareAll) {
    r->Fail("spans leave " + std::to_string(100 * an.uncovered_share) +
            "% of traced time uncovered");
  }
}

void ReportCounterMetrics(const CounterWindow& w, Report* r) {
  const StatsDelta& d = w.delta;
  const double commits = static_cast<double>(w.commits);
  // Commit-time data syncs: acquisitions of the syncfs serializer. Each one
  // issues syncfs(2) unless a concurrent sync already covered its writes.
  double data_syncs = d.Counter("wait.bufpool.data_sync.acquires");
  double commit_wait_ns = 0;
  for (const char* cls :
       {"wait.clog.fsync_ns", "wait.bufpool.data_sync_ns",
        "wait.txn.commit_serialize_ns", "wait.clog.group_commit.follower_ns",
        "wait.clog.group_commit.gather_ns", "wait.clog.mutex_ns"}) {
    commit_wait_ns += d.HistSumNs(cls);
  }
  r->Metric("txn.clog_fsyncs_per_commit",
            Ratio(static_cast<double>(w.clog_fsyncs), commits), "count");
  r->Metric("txn.data_syncs_per_commit", Ratio(data_syncs, commits), "count");
  // Commits one commit-log fsync covers: the group size under group commit,
  // the piggyback factor without it.
  r->Metric("txn.commit_group_mean",
            Ratio(commits, static_cast<double>(w.clog_fsyncs)), "count");
  r->Metric("txn.commit_wait_ms_per_commit",
            Ratio(commit_wait_ns / 1e6, commits), "ms");
  r->Metric("txn.clog_mutex_acquires_per_txn",
            Ratio(d.Counter("wait.clog.mutex.acquires"),
                  static_cast<double>(w.txns)),
            "count");

  double hits = d.Counter("bufpool.hits");
  double misses = d.Counter("bufpool.misses");
  r->Metric("storage.hit_rate", Ratio(hits, hits + misses), "ratio");
  r->Metric("storage.misses", misses, "count");
  r->Metric("storage.evictions", d.Counter("bufpool.evictions"), "count");
  r->Metric("storage.readahead_pages", d.Counter("bufpool.readahead_pages"),
            "count");
  r->Metric("storage.writebacks_per_commit",
            Ratio(d.Counter("bufpool.writebacks"), commits), "count");
  // Contended buffer-pool latch acquisitions: a count, since the wait time
  // of a single-session workload is 0 on every run.
  r->Metric("storage.latch_waits_per_txn",
            Ratio(d.Counter("wait.latch.bufpool.contended"),
                  static_cast<double>(w.txns)),
            "count");

  double fsm_hits = d.Counter("heap.fsm.hits");
  r->Metric("heap.fsm_hit_rate",
            Ratio(fsm_hits, fsm_hits + d.Counter("heap.fsm.misses")),
            "ratio");
  r->Metric("btree.descents_per_lookup",
            Ratio(d.HistCount("btree.descend_ns"),
                  static_cast<double>(w.lookups)),
            "count");

  r->Metric("smgr.blocks_read", d.Sum("smgr.", ".blocks_read"), "count");
  r->Metric("smgr.blocks_written", d.Sum("smgr.", ".blocks_written"),
            "count");
  r->Metric("smgr.coalesced_runs", d.Sum("smgr.", ".coalesced_runs"),
            "count");
  double worm_hits = d.Counter("smgr.worm.cache_hits");
  r->Metric("smgr.worm_cache_hit_rate",
            Ratio(worm_hits, worm_hits + d.Counter("smgr.worm.cache_misses")),
            "ratio");
  r->Metric("device.seeks", d.Sum("device.", ".seeks"), "count");
  r->Metric("device.blocks_transferred",
            d.Sum("device.", ".blocks_read") +
                d.Sum("device.", ".blocks_written"),
            "count");
  double ufs_hits = d.Counter("ufs.cache.hits");
  r->Metric("ufs.cache_hit_rate",
            Ratio(ufs_hits, ufs_hits + d.Counter("ufs.cache.misses")),
            "ratio");
  r->Metric("inversion.index_probes_per_resolve",
            Ratio(d.Counter("inversion.index_probes"),
                  d.Counter("inversion.path_resolutions")),
            "count");
}

}  // namespace lobench

namespace lobench {

void SyncFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

}  // namespace lobench
