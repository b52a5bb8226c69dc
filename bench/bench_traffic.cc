// Many-client traffic generator (DESIGN.md §16): an in-process PgloServer
// on loopback, driven by hundreds of concurrent pglo-wire-v1 clients
// replaying an open-loop transaction mix against a zipfian-popular object
// population. Sweeps offered load across a fixed ladder of arrival rates
// and reports achieved throughput and p50/p99 response time at each rung,
// then names the measured saturation point — the lowest offered load the
// server fails to keep up with.
//
// Model:
//   - Population: a pre-created mix of small/medium/large objects; every
//     transaction picks its object zipf(s=0.99)-style, so a handful of hot
//     objects absorb most of the traffic (the video-server access pattern
//     from the paper's motivating workloads).
//   - Clients: one TCP connection + one thread each. Arrivals are open
//     loop: each client draws exponential inter-arrival gaps (think
//     times) from its slice of the offered rate and fires on schedule —
//     response time is measured from the SCHEDULED arrival, so queueing
//     delay counts when the server falls behind, exactly how saturation
//     becomes visible as a p99 cliff.
//   - Mix: 70% point reads (seek to a random offset in the object, read
//     4 KB), 30% appends (seek end, write 512 B, commit through the
//     group-commit queue). Read transactions ABORT (no commit-log force);
//     appends COMMIT.
//
// Wall-clock latencies are machine-dependent, so — like
// bench_concurrency — the emitted JSON is schema-validated by
// tools/check.sh's server_gate but never numerically compared against a
// baseline. The bench gates its own shape instead: every rung must
// complete transactions without errors, and the bottom rung (far below
// any plausible saturation) must achieve >= 80% of its offered load.
//
// Run: bench_traffic [--quick] [--json=FILE] [workdir]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "client/client.h"
#include "common/random.h"
#include "inversion/inversion_fs.h"
#include "server/server.h"

namespace pglo {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kZipfSkew = 0.99;
constexpr double kReadFraction = 0.7;
constexpr size_t kReadBytes = 4096;
constexpr size_t kAppendBytes = 512;

/// Zipf(s) over [0, n): item 0 is the hottest. CDF built once, sampled by
/// binary search on a uniform double.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Random& rng) const {
    double u = rng.NextDouble();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct ClientResult {
  std::vector<double> latencies_ms;  ///< scheduled arrival -> reply
  uint64_t reads = 0;
  uint64_t appends = 0;
  uint64_t conflicts = 0;  ///< kAborted: write-write collision on a hot object
  uint64_t errors = 0;
  std::string first_error;
};

struct TrafficShape {
  int clients = 0;
  std::vector<double> offered;  ///< txn/s ladder, ascending
  double seconds_per_point = 0;
  size_t objects = 0;
};

TrafficShape ShapeFor(bool quick) {
  TrafficShape shape;
  if (quick) {
    shape.clients = 48;
    shape.offered = {100, 300, 900, 2700};
    shape.seconds_per_point = 1.2;
    shape.objects = 32;
  } else {
    shape.clients = 200;
    shape.offered = {200, 600, 1800, 5400, 16200};
    shape.seconds_per_point = 4.0;
    shape.objects = 96;
  }
  return shape;
}

/// Object population: three size classes, hot-first so the zipf head hits
/// a spread of sizes (index % 3 interleaves classes).
std::vector<size_t> PopulationSizes(size_t n, bool quick) {
  std::vector<size_t> sizes(n);
  for (size_t i = 0; i < n; ++i) {
    switch (i % 3) {
      case 0: sizes[i] = quick ? 4096 : 8192; break;
      case 1: sizes[i] = quick ? 32768 : 65536; break;
      default: sizes[i] = quick ? 131072 : 524288; break;
    }
  }
  return sizes;
}

/// One client's open-loop run: fire transactions on an exponential
/// arrival schedule from `start` until `end`, recording response times
/// against the SCHEDULE (queueing included). A dead connection ends the
/// run (errors carry the reason out).
void RunClient(uint16_t port, const std::vector<uint64_t>* oids,
               const ZipfSampler* zipf, double rate_per_client,
               Clock::time_point start, Clock::time_point end, uint64_t seed,
               ClientResult* out) {
  auto fail = [out](const std::string& what, const Status& s) {
    ++out->errors;
    if (out->first_error.empty()) {
      out->first_error = what + ": " + s.ToString();
    }
  };
  auto attempt = PgloClient::Connect("127.0.0.1", port, "traffic");
  if (!attempt.ok()) return fail("connect", attempt.status());
  std::unique_ptr<PgloClient> client = std::move(attempt).value();
  Random rng(seed);
  Bytes append_data = rng.RandomBytes(kAppendBytes);

  auto next_gap = [&] {
    // Exponential think time with mean 1/rate (clamped away from 0).
    double u = std::max(rng.NextDouble(), 1e-12);
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(u) / rate_per_client));
  };

  Clock::time_point arrival = start + next_gap();
  while (arrival < end) {
    std::this_thread::sleep_until(arrival);
    uint64_t oid = (*oids)[zipf->Sample(rng)];
    bool is_read = rng.NextDouble() < kReadFraction;
    Status s = client->Begin();
    if (s.ok()) {
      auto h = client->OpenLo(oid, /*writable=*/!is_read);
      if (!h.ok()) {
        s = h.status();
      } else if (is_read) {
        auto size = client->Seek(h.value(), 0, Whence::kEnd);
        if (!size.ok()) {
          s = size.status();
        } else {
          uint64_t limit = size.value() > kReadBytes
                               ? size.value() - kReadBytes
                               : 0;
          uint64_t off = limit > 0 ? rng.Uniform(limit + 1) : 0;
          s = client->Seek(h.value(), static_cast<int64_t>(off), Whence::kSet)
                  .status();
          if (s.ok()) s = client->Read(h.value(), kReadBytes).status();
        }
        // A transaction that wrote nothing has no XID, so ending it costs
        // nothing either way: no force, no commit-log record.
        Status fin = client->Abort();
        if (s.ok()) s = fin;
      } else {
        s = client->Seek(h.value(), 0, Whence::kEnd).status();
        if (s.ok()) s = client->Write(h.value(), Slice(append_data));
        if (s.ok()) s = client->Commit().status();
      }
    }
    if (!s.ok()) {
      // Best-effort rollback; the transaction may already be gone (read
      // transactions abort on their own path).
      Status cleanup = client->Abort();
      if (s.IsAborted()) {
        // Write-write conflict on a zipf-hot object: the expected fate of
        // some concurrent appends, not a failure — a real client would
        // retry on its next think-time tick.
        ++out->conflicts;
      } else {
        fail(is_read ? "read txn" : "append txn", s);
      }
      if (s.IsIOError() || cleanup.IsIOError()) break;  // connection gone
    } else {
      double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - arrival)
              .count();
      out->latencies_ms.push_back(ms);
      if (is_read) {
        ++out->reads;
      } else {
        ++out->appends;
      }
    }
    arrival += next_gap();
  }
  (void)client->Bye();
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

struct LoadPoint {
  double offered = 0;
  double achieved = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  uint64_t completed = 0;
  uint64_t reads = 0;
  uint64_t appends = 0;
  uint64_t conflicts = 0;
  uint64_t errors = 0;
  double wall_seconds = 0;
  double sim_seconds = 0;
};

int Main(int argc, char** argv) {
  BenchArgs args =
      ParseBenchArgs(argc, argv, "traffic", "/tmp/pglo_bench_traffic");
  const std::string& workdir = args.workdir;
  int rc = std::system(("rm -rf '" + workdir + "'").c_str());
  (void)rc;
  TrafficShape shape = ShapeFor(args.quick);

  DatabaseOptions options;
  options.dir = workdir + "/db";
  options.buffer_pool_frames = 4096;
  options.charge_devices = false;  // wall-clock bench: no 1992 device sim
  options.enable_stats = true;
  options.enable_flight_recorder = false;
  Database db;
  Status s = db.Open(options);
  if (!s.ok()) {
    std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
    return 1;
  }

  // Population: created and committed before any traffic.
  std::vector<size_t> sizes = PopulationSizes(shape.objects, args.quick);
  std::vector<uint64_t> oids;
  {
    Random rng(kCreateSeed);
    auto session = db.Connect();
    for (size_t i = 0; i < shape.objects; ++i) {
      session->Begin();
      auto oid = session->CreateLo(LoSpec{});
      Status cs = oid.status();
      if (cs.ok()) {
        auto fd = session->OpenLo(oid.value(), true);
        cs = fd.status();
        if (cs.ok()) cs = fd.value()->Write(Slice(rng.RandomBytes(sizes[i])));
      }
      if (cs.ok()) cs = session->Commit().status();
      if (!cs.ok()) {
        std::fprintf(stderr, "populate object %zu: %s\n", i,
                     cs.ToString().c_str());
        return 1;
      }
      oids.push_back(oid.value());
    }
  }

  ServerOptions server_options;
  server_options.max_connections = static_cast<uint32_t>(shape.clients + 8);
  PgloServer server(&db, nullptr, server_options);
  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start: %s\n", s.ToString().c_str());
    return 1;
  }

  ZipfSampler zipf(shape.objects, kZipfSkew);
  BenchRun run(args);
  std::printf(
      "Traffic generator: %d clients over loopback, %zu objects "
      "(zipf s=%.2f), %.0f%% reads / %.0f%% appends, %.1fs per load point\n\n",
      shape.clients, shape.objects, kZipfSkew, kReadFraction * 100,
      (1 - kReadFraction) * 100, shape.seconds_per_point);
  std::printf("%12s %12s %10s %10s %10s %9s %10s %8s\n", "offered/s",
              "achieved/s", "p50 ms", "p99 ms", "mean ms", "txns",
              "conflicts", "errors");

  std::vector<LoadPoint> points;
  for (size_t pi = 0; pi < shape.offered.size(); ++pi) {
    double offered = shape.offered[pi];
    double per_client = offered / shape.clients;
    std::vector<ClientResult> results(shape.clients);
    uint64_t sim_begin = db.clock().NowNanos();

    // Clients connect first (setup excluded from the measured window),
    // then the schedule opens at `start`.
    Clock::time_point start = Clock::now() + std::chrono::milliseconds(300);
    Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(shape.seconds_per_point));
    std::vector<std::thread> threads;
    threads.reserve(shape.clients);
    for (int c = 0; c < shape.clients; ++c) {
      threads.emplace_back(RunClient, server.port(), &oids, &zipf, per_client,
                           start, end,
                           kCreateSeed + pi * 10007 + static_cast<uint64_t>(c),
                           &results[c]);
    }
    for (auto& t : threads) t.join();

    LoadPoint point;
    point.offered = offered;
    point.wall_seconds = shape.seconds_per_point;
    point.sim_seconds =
        static_cast<double>(db.clock().NowNanos() - sim_begin) * 1e-9;
    std::vector<double> latencies;
    for (ClientResult& r : results) {
      latencies.insert(latencies.end(), r.latencies_ms.begin(),
                       r.latencies_ms.end());
      point.reads += r.reads;
      point.appends += r.appends;
      point.conflicts += r.conflicts;
      point.errors += r.errors;
      if (r.errors > 0 && !r.first_error.empty()) {
        std::fprintf(stderr, "client error at %.0f/s: %s\n", offered,
                     r.first_error.c_str());
      }
    }
    point.completed = latencies.size();
    point.achieved =
        static_cast<double>(point.completed) / shape.seconds_per_point;
    double sum = 0;
    for (double v : latencies) sum += v;
    point.mean_ms =
        latencies.empty() ? 0 : sum / static_cast<double>(latencies.size());
    point.p50_ms = Percentile(latencies, 0.50);
    point.p99_ms = Percentile(latencies, 0.99);
    std::printf("%12.0f %12.0f %10.2f %10.2f %10.2f %9llu %10llu %8llu\n",
                point.offered, point.achieved, point.p50_ms, point.p99_ms,
                point.mean_ms,
                static_cast<unsigned long long>(point.completed),
                static_cast<unsigned long long>(point.conflicts),
                static_cast<unsigned long long>(point.errors));

    run.StartConfig("offered_" + std::to_string(static_cast<int>(offered)),
                    &db,
                    {{"offered_txn_per_s",
                      std::to_string(static_cast<int>(offered))},
                     {"clients", std::to_string(shape.clients)},
                     {"objects", std::to_string(shape.objects)},
                     {"zipf_s", "0.99"},
                     {"read_fraction", "0.7"}});
    // The simulated-seconds row keeps the pglo-bench-v1 schema; with
    // device charging off it tracks engine-side clock advances only and,
    // like every wall-clock figure here, is NOT baseline-gated.
    run.RecordResult("traffic", point.sim_seconds);
    run.RecordValue("traffic", "offered_txn_per_s", point.offered);
    run.RecordValue("traffic", "achieved_txn_per_s", point.achieved);
    run.RecordValue("traffic", "p50_ms", point.p50_ms);
    run.RecordValue("traffic", "p99_ms", point.p99_ms);
    run.RecordValue("traffic", "mean_ms", point.mean_ms);
    run.RecordValue("traffic", "completed",
                    static_cast<double>(point.completed));
    run.RecordValue("traffic", "reads", static_cast<double>(point.reads));
    run.RecordValue("traffic", "appends",
                    static_cast<double>(point.appends));
    run.RecordValue("traffic", "conflicts",
                    static_cast<double>(point.conflicts));
    run.RecordValue("traffic", "errors", static_cast<double>(point.errors));
    run.RecordValue("traffic", "wall_seconds", point.wall_seconds);
    run.RecordValue("traffic", "clients",
                    static_cast<double>(shape.clients));
    run.FinishConfig();
    points.push_back(point);
  }

  // Saturation: the lowest offered load where achieved throughput falls
  // short of 90% of offered. Response-time percentiles tell the same
  // story (the p99 cliff), but the throughput shortfall is the crisper
  // binary signal across machines.
  double saturation = 0;
  for (const LoadPoint& p : points) {
    if (p.achieved < 0.9 * p.offered) {
      saturation = p.offered;
      break;
    }
  }
  if (saturation > 0) {
    std::printf("\nsaturation point: %.0f txn/s offered (achieved falls "
                "below 90%% of offered there)\n",
                saturation);
  } else {
    std::printf("\nsaturation point: not reached at <= %.0f txn/s offered "
                "(server kept up at every rung)\n",
                points.back().offered);
  }
  run.StartConfig("summary", nullptr,
                  {{"points", std::to_string(points.size())}});
  run.RecordResult("saturation", 0.0);
  run.RecordValue("saturation", "saturation_offered_txn_per_s", saturation);
  run.RecordValue("saturation", "saturated", saturation > 0 ? 1.0 : 0.0);
  run.RecordValue("saturation", "max_offered_txn_per_s",
                  points.back().offered);
  run.FinishConfig();

  server.Stop();
  StatsSnapshot stats = db.Stats();
  for (const auto& [name, value] : stats.counters) {
    if (name.rfind("server.", 0) == 0 && value > 0) {
      std::printf("  %-32s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  s = db.Close();
  if (!s.ok()) {
    std::fprintf(stderr, "close: %s\n", s.ToString().c_str());
    return 1;
  }

  // Shape gates (machine-independent): no errors anywhere, and the bottom
  // rung — far below any plausible saturation — keeps up.
  uint64_t total_errors = 0;
  for (const LoadPoint& p : points) total_errors += p.errors;
  if (total_errors > 0) {
    std::fprintf(stderr, "FAIL: %llu transaction errors during the sweep\n",
                 static_cast<unsigned long long>(total_errors));
    return 1;
  }
  if (points.front().achieved < 0.8 * points.front().offered) {
    std::fprintf(stderr,
                 "FAIL: bottom rung achieved %.0f/s of %.0f/s offered — the "
                 "server cannot keep up with trickle load\n",
                 points.front().achieved, points.front().offered);
    return 1;
  }
  s = run.Finish();
  if (!s.ok()) {
    std::fprintf(stderr, "emit failed: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pglo

int main(int argc, char** argv) { return pglo::bench::Main(argc, argv); }
