// served_mix: large-object transactions served over pglo-wire-v1 by an
// in-process PgloServer configured as pglo_server is by default. `threads`
// connections run a closed loop: 70% zipf(0.99) 4 KB point reads, 30%
// 512 B appends, every transaction ending in COMMIT. Each connection
// appends only to the objects it owns, so no write-write conflict can fail
// an operation; the population fits the buffer pool.

#include <algorithm>
#include <cstdio>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "db/database.h"
#include "inversion/inversion_fs.h"
#include "server/server.h"
#include "workloads.h"

namespace lobench {
namespace {

using pglo::Bytes;
using pglo::Slice;
using pglo::Status;
using pglo::Whence;

constexpr size_t kObjects = 48;
constexpr size_t kReadBytes = 4096;
constexpr size_t kAppendBytes = 512;
constexpr double kReadFraction = 0.7;
constexpr double kZipfSkew = 0.99;
constexpr int kSetups = 5;
/// Transactions per connection between deadline checks: every run attempts
/// whole rounds.
constexpr int kRoundTxns = 10;
/// Traced run: transactions in the served-vs-embedded comparison and in the
/// read-only commit-log probe.
constexpr int kOverheadTxns = 400;
constexpr int kReadOnlyProbeTxns = 200;
/// Transactions of the fixed-work window that sets the end-to-end metrics:
/// one connection, so no two commits overlap and neither the bytes written
/// nor the CPU time depend on their timing, and a fixed count, so the work
/// does not depend on the program's speed.
constexpr int kWindowTxns = 1000;
/// Bulk-read passes (every object, whole, in one transaction) after the
/// window, and the size of each read request.
constexpr int kReadPasses = 30;
constexpr uint32_t kPassReadBytes = 1024 * 1024;
/// Bulk-append passes (kPassAppends appends to each of connection 0's
/// objects, in one transaction) before the bulk reads.
constexpr int kAppendPasses = 16;
constexpr int kPassAppends = 64;

size_t InitialSize(size_t o) {
  static constexpr size_t kSizes[] = {8192, 65536, 524288};
  return kSizes[o % 3];
}

/// The benchmark's model of the population: object o's bytes are its
/// initial contents followed by `appends[o]` 512-byte chunks, each a pure
/// function of its position.
struct Model {
  uint64_t seed = 0;
  std::vector<uint64_t> oids;
  std::vector<uint64_t> appends;  ///< written only by the owning connection

  uint64_t Size(size_t o) const {
    return InitialSize(o) + appends[o] * kAppendBytes;
  }
  void Expected(size_t o, uint64_t off, size_t n, uint8_t* out) const {
    size_t init = InitialSize(o);
    while (n > 0) {
      size_t take;
      if (off < init) {
        take = std::min<uint64_t>(n, init - off);
        FillContent(Mix(seed, 0x1417, o), off, out, take);
      } else {
        take = n;
        FillContent(Mix(seed, 0xA99E, o), off - init, out, take);
      }
      out += take;
      off += take;
      n -= take;
    }
  }
  bool Matches(size_t o, uint64_t off, const Bytes& got) const {
    Bytes want(got.size());
    Expected(o, off, got.size(), want.data());
    return want == got;
  }
};

/// One generated transaction.
struct TxnSpec {
  bool read = true;
  size_t object = 0;
  uint64_t offset = 0;  ///< reads: within the object's initial contents
};

class Generator {
 public:
  Generator(uint64_t seed, int threads)
      : zipf_all_(kObjects, kZipfSkew), owned_(threads) {
    // Popularity order: a seeded permutation, so hot objects spread over
    // sizes and owners.
    std::vector<size_t> perm(kObjects);
    for (size_t i = 0; i < kObjects; ++i) perm[i] = i;
    Rng rng(Mix(seed, 0x9E6));
    for (size_t i = kObjects - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.Uniform(i + 1)]);
    }
    by_rank_ = perm;
    for (size_t o : by_rank_) owned_[o % threads].push_back(o);
  }

  /// The objects connection `conn` appends to.
  const std::vector<size_t>& owned(int conn) const { return owned_[conn]; }

  TxnSpec Next(Rng& rng, int conn) const {
    TxnSpec t;
    t.read = rng.NextDouble() < kReadFraction;
    if (t.read) {
      t.object = by_rank_[zipf_all_.Sample(rng)];
      t.offset = rng.Uniform(InitialSize(t.object) - kReadBytes + 1);
    } else {
      // Appends spread uniformly over the connection's own objects.
      const std::vector<size_t>& own = owned_[conn];
      t.object = own[rng.Uniform(own.size())];
    }
    return t;
  }

 private:
  Zipf zipf_all_;
  std::vector<size_t> by_rank_;
  std::vector<std::vector<size_t>> owned_;
};

/// What one connection's closed loop measured.
struct ConnResult {
  Samples read_ms, write_ms;
  Samples traced_ms, untraced_ms;  ///< traced run: all txns, by parity
  uint64_t attempted = 0, committed = 0;
  int64_t end_ns = 0;
  std::vector<int64_t> done_ns;  ///< commit reply times
  std::vector<std::string> problems;  ///< model mismatches
  std::vector<std::string> errors;    ///< failed operations
  Tracer tracer;
};

/// One transaction's inputs and outputs. Prepare() fills the input before
/// the transaction is timed; Verify() checks the output after.
struct TxnIo {
  Bytes chunk;      ///< appends: the bytes to append
  uint64_t expected_size = 0;
  Bytes got;        ///< reads: the bytes read
  uint64_t size = 0;  ///< appends: the size the object had before
};

TxnIo Prepare(const Model& model, const TxnSpec& t) {
  TxnIo io;
  if (!t.read) {
    io.expected_size = model.Size(t.object);
    io.chunk.resize(kAppendBytes);
    model.Expected(t.object, io.expected_size, kAppendBytes, io.chunk.data());
  }
  return io;
}

/// Checks a committed transaction against the model (and counts a
/// committed append into it); "" when it matches.
std::string Verify(Model* model, const TxnSpec& t, const TxnIo& io) {
  if (t.read) {
    if (io.got.size() != kReadBytes ||
        !model->Matches(t.object, t.offset, io.got)) {
      return "read of object " + std::to_string(t.object) + " at " +
             std::to_string(t.offset) + " differs from the model";
    }
    return "";
  }
  ++model->appends[t.object];
  if (io.size != io.expected_size) {
    return "object " + std::to_string(t.object) + " had size " +
           std::to_string(io.size) + ", model says " +
           std::to_string(io.expected_size);
  }
  return "";
}

/// Runs one transaction over the wire: only the client calls, each in its
/// span.
Status ServedTxn(pglo::PgloClient* cl, const TxnSpec& t, uint64_t oid,
                 TxnIo* io, Tracer* tr, uint32_t root) {
  {
    Scoped s(tr, "client.begin", root);
    PGLO_RETURN_IF_ERROR(cl->Begin());
  }
  uint32_t h;
  {
    Scoped s(tr, "client.open", root);
    PGLO_ASSIGN_OR_RETURN(h, cl->OpenLo(oid, !t.read));
  }
  if (t.read) {
    {
      Scoped s(tr, "client.seek", root);
      PGLO_RETURN_IF_ERROR(
          cl->Seek(h, static_cast<int64_t>(t.offset), Whence::kSet).status());
    }
    Scoped s(tr, "client.read", root);
    PGLO_ASSIGN_OR_RETURN(io->got, cl->Read(h, kReadBytes));
  } else {
    {
      Scoped s(tr, "client.seek", root);
      PGLO_ASSIGN_OR_RETURN(io->size, cl->Seek(h, 0, Whence::kEnd));
    }
    Scoped s(tr, "client.write", root);
    PGLO_RETURN_IF_ERROR(cl->Write(h, Slice(io->chunk)));
  }
  Scoped s(tr, "client.commit", root);
  return cl->Commit().status();
}

/// The same transaction on an embedded Session (traced run only).
Status EmbeddedTxn(pglo::Session* s, const TxnSpec& t, uint64_t oid,
                   TxnIo* io, Tracer* tr, uint32_t root) {
  {
    Scoped sp(tr, "db.begin", root);
    s->Begin();
  }
  pglo::LoDescriptor* d;
  {
    Scoped sp(tr, "lo.open", root);
    PGLO_ASSIGN_OR_RETURN(d, s->OpenLo(oid, !t.read));
  }
  if (t.read) {
    {
      Scoped sp(tr, "lo.seek", root);
      PGLO_RETURN_IF_ERROR(
          d->Seek(static_cast<int64_t>(t.offset), Whence::kSet).status());
    }
    Scoped sp(tr, "lo.read", root);
    PGLO_ASSIGN_OR_RETURN(io->got, d->Read(kReadBytes));
  } else {
    {
      Scoped sp(tr, "lo.seek", root);
      PGLO_ASSIGN_OR_RETURN(io->size, d->Seek(0, Whence::kEnd));
    }
    Scoped sp(tr, "lo.write", root);
    PGLO_RETURN_IF_ERROR(d->Write(Slice(io->chunk)));
  }
  Scoped sp(tr, "db.commit", root);
  return s->Commit().status();
}

/// Checks one object's full contents against the model; "" when it
/// matches.
std::string CheckObject(pglo::Session* s, const Model& model, size_t o,
                        uint64_t oid) {
  s->Begin();
  std::string err;
  auto d = s->OpenLo(oid, false);
  if (!d.ok()) {
    err = "object " + std::to_string(o) + " cannot be opened: " +
          d.status().ToString();
  } else {
    auto data = (*d)->Read(model.Size(o) + 1);
    if (!data.ok()) {
      err = "object " + std::to_string(o) + " unreadable";
    } else if (data->size() != model.Size(o)) {
      err = "object " + std::to_string(o) + " has " +
            std::to_string(data->size()) + " bytes, model " +
            std::to_string(model.Size(o));
    } else if (!model.Matches(o, 0, *data)) {
      err = "object " + std::to_string(o) + " content differs";
    }
  }
  (void)s->Abort();
  return err;
}

pglo::DatabaseOptions ServerDefaults(const std::string& dir) {
  // pglo_server's configuration (tools/pglo_server.cpp) without flags.
  pglo::DatabaseOptions options;
  options.dir = dir;
  options.buffer_pool_frames = 4096;
  options.charge_devices = false;
  options.group_commit = false;
  return options;
}

/// One served instance: database, Inversion, server and connections.
struct Instance {
  pglo::Database db;
  std::unique_ptr<pglo::InversionFs> inv;
  std::unique_ptr<pglo::PgloServer> server;
  std::vector<std::unique_ptr<pglo::PgloClient>> clients;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() {
    clients.clear();
    if (server) server->Stop();
    server.reset();
    (void)db.Close();
  }
};

Status SetUp(const std::string& dir, int threads, Model* model,
             Instance* inst) {
  PGLO_RETURN_IF_ERROR(inst->db.Open(ServerDefaults(dir)));
  inst->inv = std::make_unique<pglo::InversionFs>(
      inst->db.context(), &inst->db.large_objects());
  auto s = inst->db.Connect();
  s->Begin();
  PGLO_RETURN_IF_ERROR(inst->inv->Bootstrap(s->txn()));
  PGLO_RETURN_IF_ERROR(s->Commit().status());
  s->Begin();
  model->oids.assign(kObjects, 0);
  model->appends.assign(kObjects, 0);
  for (size_t o = 0; o < kObjects; ++o) {
    PGLO_ASSIGN_OR_RETURN(model->oids[o], s->CreateLo(pglo::LoSpec{}));
    PGLO_ASSIGN_OR_RETURN(pglo::LoDescriptor * d,
                          s->OpenLo(model->oids[o], true));
    Bytes data(InitialSize(o));
    model->Expected(o, 0, data.size(), data.data());
    PGLO_RETURN_IF_ERROR(d->Write(Slice(data)));
  }
  PGLO_RETURN_IF_ERROR(s->Commit().status());
  s.reset();
  inst->server = std::make_unique<pglo::PgloServer>(&inst->db,
                                                    inst->inv.get());
  PGLO_RETURN_IF_ERROR(inst->server->Start());
  for (int c = 0; c < threads; ++c) {
    PGLO_ASSIGN_OR_RETURN(auto cl, pglo::PgloClient::Connect(
                                       "127.0.0.1", inst->server->port(),
                                       "lobench"));
    inst->clients.push_back(std::move(cl));
  }
  return Status::OK();
}

void RunConn(int c, const Args& a, const Generator& gen, Model* model,
             pglo::PgloClient* cl, std::latch* start, int64_t deadline,
             ConnResult* out) {
  Rng rng(Mix(a.seed, 0x5E55, static_cast<uint64_t>(c)));
  Tracer off;
  out->tracer = Tracer(a.trace, static_cast<uint32_t>(c + 1));
  start->arrive_and_wait();
  uint64_t n = 0;
  while (NowNs() < deadline) {
    for (int k = 0; k < kRoundTxns; ++k, ++n) {
      TxnSpec t = gen.Next(rng, c);
      bool traced = a.trace && (n % 2 == 1);
      Tracer* tr = traced ? &out->tracer : &off;
      TxnIo io = Prepare(*model, t);
      int64_t t0 = NowNs();
      uint32_t root = traced ? tr->Begin(t.read ? "txn.read" : "txn.write", 0)
                             : 0;
      Status st = ServedTxn(cl, t, model->oids[t.object], &io, tr, root);
      if (root != 0) tr->End(root);
      double ms = static_cast<double>(NowNs() - t0) / 1e6;
      ++out->attempted;
      if (!st.ok()) {
        out->errors.push_back(st.ToString());
        (void)cl->Abort();
        continue;
      }
      std::string problem = Verify(model, t, io);
      if (!problem.empty()) out->problems.push_back(problem);
      ++out->committed;
      const int64_t done = NowNs();
      (t.read ? out->read_ms : out->write_ms).Add(ms, done);
      out->done_ns.push_back(done);
      (traced ? out->traced_ms : out->untraced_ms).Add(ms);
    }
  }
  out->end_ns = NowNs();
}

/// One bulk-read pass over the wire: every object read whole, in
/// kPassReadBytes requests, in one transaction that commits. Only the
/// client calls are timed; the contents are checked afterwards. Adds the
/// pass's wall and process CPU seconds to `wall_s` and `cpu_s`; false after
/// a failure (recorded in `r`).
bool ReadPass(pglo::PgloClient* cl, const Model& model, Report* r,
              Samples* wall_s, Samples* cpu_s) {
  std::vector<Bytes> got(kObjects);
  const int64_t c0 = ProcessCpuNs();
  const int64_t t0 = NowNs();
  Status st = [&]() -> Status {
    PGLO_RETURN_IF_ERROR(cl->Begin());
    for (size_t o = 0; o < kObjects; ++o) {
      PGLO_ASSIGN_OR_RETURN(uint32_t h, cl->OpenLo(model.oids[o], false));
      while (true) {
        PGLO_ASSIGN_OR_RETURN(Bytes chunk, cl->Read(h, kPassReadBytes));
        if (chunk.empty()) break;
        got[o].insert(got[o].end(), chunk.begin(), chunk.end());
      }
    }
    return cl->Commit().status();
  }();
  const int64_t t1 = NowNs();
  const int64_t c1 = ProcessCpuNs();
  ++r->attempted;
  if (!st.ok()) {
    r->OperationFailed("read pass: " + st.ToString());
    (void)cl->Abort();
    return false;
  }
  wall_s->Add(static_cast<double>(t1 - t0) / 1e9);
  cpu_s->Add(static_cast<double>(c1 - c0) / 1e9);
  for (size_t o = 0; o < kObjects; ++o) {
    if (got[o].size() != model.Size(o) || !model.Matches(o, 0, got[o])) {
      r->Fail("read pass: object " + std::to_string(o) +
              " differs from the model");
    }
  }
  return true;
}

/// One bulk-append pass over the wire: kPassAppends appends of
/// kAppendBytes to each of `objects`, in one transaction that commits.
/// Adds the pass's process CPU seconds to `cpu_s` and counts the appends
/// into the model; false after a failure (recorded in `r`).
bool AppendPass(pglo::PgloClient* cl, const std::vector<size_t>& objects,
                Model* model, Report* r, Samples* cpu_s) {
  std::vector<Bytes> chunks;
  for (size_t o : objects) {
    for (int i = 0; i < kPassAppends; ++i) {
      chunks.emplace_back(kAppendBytes);
      model->Expected(o, model->Size(o) + i * kAppendBytes, kAppendBytes,
                      chunks.back().data());
    }
  }
  std::vector<uint64_t> sizes;
  const int64_t c0 = ProcessCpuNs();
  Status st = [&]() -> Status {
    PGLO_RETURN_IF_ERROR(cl->Begin());
    size_t c = 0;
    for (size_t o : objects) {
      PGLO_ASSIGN_OR_RETURN(uint32_t h, cl->OpenLo(model->oids[o], true));
      PGLO_ASSIGN_OR_RETURN(uint64_t size, cl->Seek(h, 0, Whence::kEnd));
      sizes.push_back(size);
      for (int i = 0; i < kPassAppends; ++i) {
        PGLO_RETURN_IF_ERROR(cl->Write(h, Slice(chunks[c++])));
      }
    }
    return cl->Commit().status();
  }();
  const int64_t c1 = ProcessCpuNs();
  ++r->attempted;
  if (!st.ok()) {
    r->OperationFailed("append pass: " + st.ToString());
    (void)cl->Abort();
    return false;
  }
  cpu_s->Add(static_cast<double>(c1 - c0) / 1e9);
  for (size_t i = 0; i < objects.size(); ++i) {
    const size_t o = objects[i];
    if (sizes[i] != model->Size(o)) {
      r->Fail("append pass: object " + std::to_string(o) + " had size " +
              std::to_string(sizes[i]) + ", model says " +
              std::to_string(model->Size(o)));
    }
    model->appends[o] += kPassAppends;
  }
  return true;
}

}  // namespace

void RunServedMix(const Args& a, Report* r) {
  const std::string dir = a.workdir + "/served";
  Model model;
  model.seed = a.seed;
  Generator gen(a.seed, a.threads);

  // Set up kSetups times; keep the last instance.
  Samples setup_s, setup_cpu_s;
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < kSetups; ++i) {
    inst.reset();
    inst = std::make_unique<Instance>();
    RemoveTree(dir);
    const int64_t c0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    Status s = SetUp(dir, a.threads, &model, inst.get());
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
    setup_cpu_s.Add(static_cast<double>(ProcessCpuNs() - c0) / 1e9);
    if (!s.ok()) {
      r->Fail("served_mix setup: " + s.ToString());
      return;
    }
  }

  // The earlier set-ups' removed trees are written back here, not inside
  // the measured commits.
  SyncFilesystem(a.workdir);

  // The fixed-work window: storage bytes written per byte appended and
  // bytes on disk per live byte at its end. The window and the bulk passes
  // after it run on one core (README).
  std::optional<PinToOneCpu> pin(std::in_place);
  double written_ratio = 0, stored_ratio = 0;
  {
    Rng rng(Mix(a.seed, 0x3B17));
    Tracer off;
    uint64_t appended = 0;
    const uint64_t written0 = StorageBytesWritten();
    for (int i = 0; i < kWindowTxns; ++i) {
      TxnSpec t = gen.Next(rng, 0);
      TxnIo io = Prepare(model, t);
      Status st = ServedTxn(inst->clients[0].get(), t, model.oids[t.object],
                            &io, &off, 0);
      ++r->attempted;
      if (!st.ok()) {
        r->OperationFailed(st.ToString());
        (void)inst->clients[0]->Abort();
        continue;
      }
      std::string problem = Verify(&model, t, io);
      if (!problem.empty()) r->Fail("window txn: " + problem);
      if (!t.read) appended += kAppendBytes;
    }
    written_ratio = Ratio(static_cast<double>(StorageBytesWritten() - written0),
                          static_cast<double>(appended));
    uint64_t live = 0;
    for (size_t o = 0; o < kObjects; ++o) live += model.Size(o);
    stored_ratio = Ratio(static_cast<double>(BytesOnDisk(dir)),
                         static_cast<double>(live));
  }

  // Bulk appends, then bulk reads (the median of kReadPasses passes).
  Samples append_cpu_s;
  for (int i = 0; i < kAppendPasses; ++i) {
    AppendPass(inst->clients[0].get(), gen.owned(0), &model, r,
               &append_cpu_s);
  }
  const double appended_mb =
      static_cast<double>(gen.owned(0).size() * kPassAppends * kAppendBytes) /
      1e6 * static_cast<double>(append_cpu_s.count());
  Samples pass_s, pass_cpu_s;
  double pass_mb = 0;
  for (size_t o = 0; o < kObjects; ++o) pass_mb += model.Size(o) / 1e6;
  for (int i = 0; i < kReadPasses; ++i) {
    ReadPass(inst->clients[0].get(), model, r, &pass_s, &pass_cpu_s);
  }
  pin.reset();

  std::vector<ConnResult> conns(a.threads);
  pglo::StatsSnapshot before = inst->db.Stats();
  uint64_t fsyncs0 = inst->db.txns().commit_log().fsync_count();
  std::latch start(a.threads + 1);
  int64_t t_start = NowNs();
  int64_t deadline = t_start + static_cast<int64_t>(a.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < a.threads; ++c) {
      threads.emplace_back(RunConn, c, std::cref(a), std::cref(gen), &model,
                           inst->clients[c].get(), &start, deadline,
                           &conns[c]);
    }
    t_start = NowNs();
    start.arrive_and_wait();
    for (auto& t : threads) t.join();
  }
  CounterWindow window;
  window.delta = StatsDelta(before, inst->db.Stats());
  window.clog_fsyncs = inst->db.txns().commit_log().fsync_count() - fsyncs0;

  ConnResult all;
  int64_t t_end = t_start;
  for (ConnResult& c : conns) {
    all.read_ms.Append(c.read_ms);
    all.write_ms.Append(c.write_ms);
    all.traced_ms.Append(c.traced_ms);
    all.untraced_ms.Append(c.untraced_ms);
    all.attempted += c.attempted;
    all.committed += c.committed;
    all.tracer.Merge(c.tracer);
    t_end = std::max(t_end, c.end_ns);
    all.done_ns.insert(all.done_ns.end(), c.done_ns.begin(), c.done_ns.end());
    for (const std::string& p : c.problems) r->Fail(p);
    for (const std::string& e : c.errors) r->OperationFailed(e);
  }
  r->attempted += all.attempted;
  double elapsed_s = static_cast<double>(t_end - t_start) / 1e9;
  PrintPerSecond(all.done_ns, t_start);

  if (!a.trace) {
    r->Metric("read_cpu_ms_per_mb", Ratio(pass_cpu_s.P50() * 1e3, pass_mb),
              "ms/MB", pass_cpu_s.count());
    r->Metric("write_cpu_ms_per_mb",
              Ratio(append_cpu_s.Sum() * 1e3, appended_mb), "ms/MB",
              append_cpu_s.count());
    r->Metric("stored_bytes_per_user_byte", stored_ratio, "ratio");
    r->Metric("written_bytes_per_user_byte", written_ratio, "ratio");
    r->Metric("setup_s", setup_cpu_s.P50(), "s", setup_cpu_s.count());
    r->Metric("setup_wall_s", setup_s.P50(), "s", setup_s.count());
    r->Metric("read_mb_per_s", Ratio(pass_mb, pass_s.P50()), "MB/s",
              pass_s.count());
    // Every served transaction waits on syncfs(2) and a commit-log
    // fdatasync, so these timings follow the disk's flush latency: on the
    // reference machine their medians moved up to 3x between sets of runs
    // minutes apart (README). They are printed in the table only.
    r->Metric("txn_per_s", MedianPerSecond(all.done_ns, t_start, t_end),
              "txn/s", static_cast<size_t>(elapsed_s));
    r->Metric("read_p50_ms", all.read_ms.P50(), "ms", all.read_ms.count());
    if (auto p99 = all.read_ms.P99()) {
      r->Metric("read_p99_ms", *p99, "ms", all.read_ms.count());
    }
    r->Metric("write_p50_ms", all.write_ms.P50(), "ms", all.write_ms.count());
    if (auto p99 = all.write_ms.P99()) {
      r->Metric("write_p99_ms", *p99, "ms", all.write_ms.count());
    }
  } else {
    // Served vs embedded: the same seeded transactions, alternating paths,
    // on connection 0's objects.
    pglo::PgloClient* cl = inst->clients[0].get();
    auto session = inst->db.Connect();
    Tracer embedded(true, 0x40);
    Samples served_us, embedded_us;
    Rng rng(Mix(a.seed, 0x0E4));
    Tracer off;
    for (int i = 0; i < kOverheadTxns; ++i) {
      TxnSpec t = gen.Next(rng, 0);
      const uint64_t oid = model.oids[t.object];
      TxnIo io = Prepare(model, t);
      int64_t t0 = NowNs();
      Status st = ServedTxn(cl, t, oid, &io, &off, 0);
      int64_t t1 = NowNs();
      if (!st.ok()) {
        r->Fail("overhead txn: " + st.ToString());
        break;
      }
      std::string problem = Verify(&model, t, io);
      TxnIo io2 = Prepare(model, t);
      int64_t t2 = NowNs();
      uint32_t root = embedded.Begin("txn.embedded", 0);
      st = EmbeddedTxn(session.get(), t, oid, &io2, &embedded, root);
      embedded.End(root);
      int64_t t3 = NowNs();
      if (st.ok() && problem.empty()) problem = Verify(&model, t, io2);
      if (!st.ok()) r->Fail("overhead txn: " + st.ToString());
      if (!problem.empty()) r->Fail(problem);
      served_us.Add(static_cast<double>(t1 - t0) / 1e3);
      embedded_us.Add(static_cast<double>(t3 - t2) / 1e3);
    }
    // Commit-log forces paid by read-only transactions.
    uint64_t f0 = inst->db.txns().commit_log().fsync_count();
    int probes = 0;
    while (probes < kReadOnlyProbeTxns) {
      TxnSpec t = gen.Next(rng, 0);
      if (!t.read) continue;
      TxnIo io;
      Status st = ServedTxn(cl, t, model.oids[t.object], &io, &off, 0);
      std::string problem = st.ok() ? Verify(&model, t, io) : st.ToString();
      if (!problem.empty()) r->Fail("probe txn: " + problem);
      ++probes;
    }
    double fsyncs_per_read =
        Ratio(static_cast<double>(inst->db.txns().commit_log().fsync_count() -
                                  f0),
              probes);

    all.tracer.Merge(embedded);
    TraceAnalysis an = Analyze(all.tracer.spans());
    double traced_txns = static_cast<double>(all.traced_ms.count());
    double client_calls = 0;
    for (const auto& [name, samples] : an.total_us) {
      if (name.rfind("client.", 0) == 0) client_calls += samples.count();
    }
    r->Metric("client.round_trips_per_txn", Ratio(client_calls, traced_txns),
              "count", static_cast<size_t>(traced_txns));
    for (const char* call : {"begin", "open", "seek", "read", "write",
                             "commit"}) {
      const Samples& s = an.total_us["client." + std::string(call)];
      r->Metric("client." + std::string(call) + "_us", s.P50(), "us",
                s.count());
    }
    r->Metric("server.overhead_us_per_txn", served_us.P50() - embedded_us.P50(),
              "us", served_us.count());
    r->Metric("db.begin_us", an.total_us["db.begin"].P50(), "us",
              an.total_us["db.begin"].count());
    r->Metric("db.commit_us", an.total_us["db.commit"].P50(), "us",
              an.total_us["db.commit"].count());
    r->Metric("txn.clog_fsyncs_per_read_txn", fsyncs_per_read, "count",
              probes);
    window.commits = all.committed;
    window.txns = all.attempted;
    window.lookups = all.committed;
    ReportCounterMetrics(window, r);
    r->Metric("trace.overhead_pct",
              100.0 * (Ratio(all.traced_ms.P50(), all.untraced_ms.P50()) - 1),
              "%", static_cast<size_t>(traced_txns));
    ReportCoverage(an, r);
    std::fprintf(stderr,
                 "# traced served_mix: %.1f txn/s, read p50 %.3f ms, write "
                 "p50 %.3f ms\n",
                 all.committed / elapsed_s, all.read_ms.P50(),
                 all.write_ms.P50());
    if (!WriteSpans(a.outdir + "/served_mix.trace.json",
                    all.tracer.spans())) {
      r->Fail("cannot write the span file");
    }
  }

  // Final state against the model, then the oracle's own check: a
  // one-byte-corrupted read and a missing object must both be caught.
  auto s = inst->db.Connect();
  for (size_t o = 0; o < kObjects; ++o) {
    std::string err = CheckObject(s.get(), model, o, model.oids[o]);
    if (!err.empty()) r->Fail(err);
  }
  Bytes probe(kReadBytes);
  model.Expected(0, 0, probe.size(), probe.data());
  probe[kReadBytes / 2] ^= 0x01;
  if (model.Matches(0, 0, probe)) {
    r->Fail("oracle missed a one-byte-corrupted read");
  }
  uint64_t missing = *std::max_element(model.oids.begin(), model.oids.end()) +
                     1000;
  if (CheckObject(s.get(), model, 0, missing).empty()) {
    r->Fail("oracle missed a missing object");
  }
}

}  // namespace lobench
