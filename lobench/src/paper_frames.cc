// paper_frames: the paper's §9 frame workload on the data path, against
// the calibrated 1992 device models. Each column (the Figure 2 disk
// implementations plus one WORM-resident f-chunk column, as in Figure 3)
// gets its own embedded database with 10 MB caches, creates a 51.2 MB
// object of 12,500 4 KB frames, and then runs rounds of the six §9
// operations (reads only on the WORM column, as §9.3 measures). Round 0
// uses the figure benches' fixed inputs, so its simulated times are the
// Figure 2/3 cells; later rounds draw their frames from the seed.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "workload/frames.h"
#include "workloads.h"

namespace lobench {
namespace {

using pglo::Bytes;
using pglo::Slice;
using pglo::Status;

constexpr uint64_t kFrameSize = 4096;
constexpr uint64_t kNumFrames = 12'500;
constexpr uint64_t kSeqFrames = 2'500;
constexpr uint64_t kRandFrames = 250;
constexpr uint64_t kCreateSeed = 0xBEEF;
/// Wall seconds one round of every column's operations took on the
/// reference machine (README): --seconds S runs S / kNominalRoundS rounds,
/// at least kMinRounds (the traced run compares round 1 with rounds 0, 2).
constexpr double kNominalRoundS = 3.0;
constexpr uint64_t kMinRounds = 3;

struct Column {
  const char* name;  ///< metric label
  const char* paper_name;
  pglo::StorageKind kind;
  const char* codec;
  uint8_t smgr;
};

const Column kColumns[] = {
    {"ufile", "user file", pglo::StorageKind::kUserFile, "", pglo::kSmgrDisk},
    {"pfile", "POSTGRES file", pglo::StorageKind::kPostgresFile, "",
     pglo::kSmgrDisk},
    {"fchunk0", "f-chunk 0%", pglo::StorageKind::kFChunk, "", pglo::kSmgrDisk},
    {"fchunk30", "f-chunk 30%", pglo::StorageKind::kFChunk, "rle",
     pglo::kSmgrDisk},
    {"vseg30", "v-segment 30%", pglo::StorageKind::kVSegment, "rle",
     pglo::kSmgrDisk},
    {"fchunk50", "f-chunk 50%", pglo::StorageKind::kFChunk, "lzss",
     pglo::kSmgrDisk},
    {"worm_fchunk0", "f-chunk 0%", pglo::StorageKind::kFChunk, "",
     pglo::kSmgrWorm},
};
constexpr size_t kNumColumns = sizeof(kColumns) / sizeof(kColumns[0]);

enum class Op { kSeqRead, kSeqWrite, kRandRead, kRandWrite, kLocalRead,
                kLocalWrite };
const Op kDiskOps[] = {Op::kSeqRead,   Op::kSeqWrite,  Op::kRandRead,
                       Op::kRandWrite, Op::kLocalRead, Op::kLocalWrite};
const Op kWormOps[] = {Op::kSeqRead, Op::kRandRead, Op::kLocalRead};

const char* OpLabel(Op op) {
  switch (op) {
    case Op::kSeqRead: return "seq_read";
    case Op::kSeqWrite: return "seq_write";
    case Op::kRandRead: return "rand_read";
    case Op::kRandWrite: return "rand_write";
    case Op::kLocalRead: return "local_read";
    case Op::kLocalWrite: return "local_write";
  }
  return "?";
}
bool IsWrite(Op op) {
  return op == Op::kSeqWrite || op == Op::kRandWrite || op == Op::kLocalWrite;
}
uint64_t ReplaceTag(Op op) {
  return op == Op::kSeqWrite ? 1 : op == Op::kRandWrite ? 2 : 3;
}

bool IsWorm(const Column& c) { return c.smgr == pglo::kSmgrWorm; }

/// The calibrated §9 configuration (the figure benches' PaperOptions):
/// 1992 device models, 10 MB DBMS and OS caches, a 65-MIPS CPU.
pglo::DatabaseOptions PaperOptions(const std::string& dir, bool worm) {
  pglo::DatabaseOptions options;
  options.dir = dir;
  options.charge_devices = true;
  options.buffer_pool_frames = 1250;
  options.ufs_params.cache_blocks = 1250;
  options.ufs_params.capacity_blocks = 32768;
  options.ufs_params.num_inodes = 64;
  options.worm_cache_blocks = 1250;
  options.cpu_mips = 65.0;
  options.page_access_instructions = 2500;
  // Figure 3: a 35 MB magnetic cache in front of the jukebox.
  if (worm) options.worm_cache_blocks = 4480;
  return options;
}

/// The frames one §9 operation touches, in order (the figure benches'
/// frame sequence for a given operation seed).
std::vector<uint64_t> OpFrames(Op op, uint64_t seed) {
  pglo::Random rng(seed);
  std::vector<uint64_t> frames;
  switch (op) {
    case Op::kSeqRead:
    case Op::kSeqWrite:
      for (uint64_t i = 0; i < kSeqFrames; ++i) frames.push_back(i);
      break;
    case Op::kRandRead:
    case Op::kRandWrite:
      for (uint64_t i = 0; i < kRandFrames; ++i) {
        frames.push_back(rng.Uniform(kNumFrames));
      }
      break;
    case Op::kLocalRead:
    case Op::kLocalWrite: {
      uint64_t frame = rng.Uniform(kNumFrames);
      for (uint64_t i = 0; i < kRandFrames; ++i) {
        frames.push_back(frame);
        frame = rng.OneInHundred(80) ? (frame + 1) % kNumFrames
                                     : rng.Uniform(kNumFrames);
      }
      break;
    }
  }
  return frames;
}

/// One column's database, object and content model.
struct ColumnState {
  const Column* col = nullptr;
  std::string dir;
  pglo::Database db;
  std::unique_ptr<pglo::Session> session;
  pglo::Oid oid = 0;
  /// Model: frame f currently holds MakeFrame(src[f].first, src[f].second).
  std::vector<std::pair<uint64_t, uint64_t>> src;
};

Status Create(ColumnState* cs) {
  PGLO_RETURN_IF_ERROR(cs->db.Open(PaperOptions(cs->dir, IsWorm(*cs->col))));
  cs->session = cs->db.Connect();
  pglo::Transaction* txn = cs->session->Begin();
  pglo::LoSpec spec;
  spec.kind = cs->col->kind;
  spec.codec = cs->col->codec;
  spec.smgr = cs->col->smgr;
  spec.chunk_size = 8000;
  // The paper created the object frame by frame: one-frame segments.
  spec.max_segment = static_cast<uint32_t>(kFrameSize);
  if (spec.kind == pglo::StorageKind::kUserFile) {
    spec.ufile_path = std::string("bench_") + cs->col->paper_name;
  }
  PGLO_ASSIGN_OR_RETURN(cs->oid, cs->db.large_objects().Create(txn, spec));
  PGLO_ASSIGN_OR_RETURN(auto lo, cs->db.large_objects().Instantiate(txn,
                                                                    cs->oid));
  pglo::FrameParams params;
  cs->src.resize(kNumFrames);
  for (uint64_t f = 0; f < kNumFrames; ++f) {
    Bytes data = pglo::MakeFrame(kCreateSeed, f, params);
    PGLO_RETURN_IF_ERROR(lo->Write(txn, f * kFrameSize, Slice(data)));
    cs->src[f] = {kCreateSeed, f};
  }
  PGLO_RETURN_IF_ERROR(cs->session->Commit().status());
  return cs->db.ufs().Sync();
}

/// The frame oracle: `got` holds exactly the frame last written to `f`.
bool FrameMatches(const ColumnState& cs, uint64_t f, const uint8_t* got) {
  pglo::FrameParams params;
  Bytes want = pglo::MakeFrame(cs.src[f].first, cs.src[f].second, params);
  return std::memcmp(want.data(), got, kFrameSize) == 0;
}

/// Reads one frame in its own read-only transaction; the frame oracle's
/// own check uses it. Returns the bytes read (fewer past the object's end).
pglo::Result<size_t> ReadFrame(ColumnState* cs, uint64_t f, uint8_t* buf) {
  pglo::Transaction* txn = cs->session->Begin();
  auto lo = cs->db.large_objects().Instantiate(txn, cs->oid);
  pglo::Result<size_t> n =
      lo.ok() ? (*lo)->Read(txn, f * kFrameSize, kFrameSize, buf)
              : pglo::Result<size_t>(lo.status());
  PGLO_RETURN_IF_ERROR(cs->session->Abort());
  return n;
}

struct OpResult {
  double sim_s = 0;
  double wall_s = 0;
  int64_t cpu_ns = 0;
  uint64_t frames = 0;
};

/// Runs one §9 operation in its own transaction. The timed interval is the
/// figure benches' (after Begin + Instantiate, through Commit and, for
/// writes, the OS-cache sync); frame generation and the content check lie
/// outside it.
Status RunOp(ColumnState* cs, Op op, uint64_t seed, Tracer* tr,
             OpResult* out, std::string* problem) {
  const std::vector<uint64_t> frames = OpFrames(op, seed);
  const bool write = IsWrite(op);
  pglo::FrameParams params;
  std::vector<Bytes> data;
  if (write) {
    for (uint64_t f : frames) {
      data.push_back(pglo::MakeFrame(seed ^ 0x5555, f + ReplaceTag(op),
                                     params));
    }
  }
  Bytes buf(write ? 0 : frames.size() * kFrameSize);

  uint32_t root = tr->enabled() ? tr->Begin("lo.op", 0) : 0;
  pglo::Transaction* txn;
  {
    Scoped s(tr, "db.begin", root);
    txn = cs->session->Begin();
  }
  std::unique_ptr<pglo::LargeObject> lo;
  {
    Scoped s(tr, "lo.instantiate", root);
    PGLO_ASSIGN_OR_RETURN(lo, cs->db.large_objects().Instantiate(txn,
                                                                 cs->oid));
  }
  pglo::SimTimer sim(&cs->db.clock());
  const int64_t c1 = ProcessCpuNs();
  int64_t w1 = NowNs();
  for (size_t i = 0; i < frames.size(); ++i) {
    uint64_t off = frames[i] * kFrameSize;
    if (write) {
      Scoped s(tr, "lo.write", root);
      PGLO_RETURN_IF_ERROR(lo->Write(txn, off, Slice(data[i])));
    } else {
      Scoped s(tr, "lo.read", root);
      PGLO_ASSIGN_OR_RETURN(
          size_t n, lo->Read(txn, off, kFrameSize, buf.data() + i * kFrameSize));
      if (n != kFrameSize) *problem = "short frame read";
    }
  }
  {
    Scoped s(tr, "db.commit", root);
    PGLO_RETURN_IF_ERROR(cs->session->Commit().status());
  }
  if (write) {
    Scoped s(tr, "ufs.sync", root);
    PGLO_RETURN_IF_ERROR(cs->db.ufs().Sync());
  }
  out->sim_s = sim.ElapsedSeconds();
  out->wall_s = static_cast<double>(NowNs() - w1) / 1e9;
  out->cpu_ns = ProcessCpuNs() - c1;
  out->frames = frames.size();
  if (root != 0) tr->End(root);

  // Model: writes replace frames in order; reads must return exactly the
  // frame last written.
  for (size_t i = 0; i < frames.size(); ++i) {
    auto& src = cs->src[frames[i]];
    if (write) {
      src = {seed ^ 0x5555, frames[i] + ReplaceTag(op)};
    } else if (problem->empty()) {
      if (!FrameMatches(*cs, frames[i], buf.data() + i * kFrameSize)) {
        *problem = std::string(cs->col->name) + " " + OpLabel(op) +
                   ": frame " + std::to_string(frames[i]) +
                   " differs from the frame last written";
      }
    }
  }
  return Status::OK();
}

/// Benchmark-side codec throughput on the workload's frames.
void ReportCodecs(pglo::Database* db, Tracer* tr, Report* r) {
  pglo::FrameParams params;
  std::vector<Bytes> frames;
  for (uint64_t f = 0; f < 500; ++f) {
    frames.push_back(pglo::MakeFrame(kCreateSeed, f, params));
  }
  double raw_total = 0, packed_total = 0;
  for (const char* name : {"rle", "lzss"}) {
    auto codec = db->codecs().Get(name);
    if (!codec.ok()) {
      r->Fail(std::string("codec ") + name + " missing");
      continue;
    }
    const std::string cspan = std::string("compress.") + name + ".compress";
    const std::string dspan = std::string("compress.") + name + ".decompress";
    double c_ns = 0, d_ns = 0, raw = 0, packed = 0;
    for (const Bytes& f : frames) {
      Bytes out, back;
      int64_t t0 = NowNs();
      Status s = (*codec)->Compress(Slice(f), &out);
      int64_t t1 = NowNs();
      if (s.ok()) s = (*codec)->Decompress(Slice(out), f.size(), &back);
      int64_t t2 = NowNs();
      tr->Record("compress", 0, t0, t1);
      tr->Record("decompress", 0, t1, t2);
      if (!s.ok() || back != f) {
        r->Fail(std::string("codec ") + name + " does not round-trip");
        return;
      }
      c_ns += static_cast<double>(t1 - t0);
      d_ns += static_cast<double>(t2 - t1);
      raw += static_cast<double>(f.size());
      packed += static_cast<double>(out.size());
    }
    r->Metric(cspan + "_mb_per_s", raw / 1e6 / (c_ns / 1e9), "MB/s",
              frames.size());
    r->Metric(dspan + "_mb_per_s", raw / 1e6 / (d_ns / 1e9), "MB/s",
              frames.size());
    raw_total += raw;
    packed_total += packed;
  }
  r->Metric("compress.ratio", Ratio(packed_total, raw_total), "ratio");
}

}  // namespace

void RunPaperFrames(const Args& a, Report* r) {
  std::vector<std::unique_ptr<ColumnState>> cols;
  for (const Column& col : kColumns) {
    RemoveTree(a.workdir + "/frames/" + col.name);
  }
  const int64_t c0 = ProcessCpuNs();
  const int64_t t0 = NowNs();
  for (size_t c = 0; c < kNumColumns; ++c) {
    auto cs = std::make_unique<ColumnState>();
    cs->col = &kColumns[c];
    cs->dir = a.workdir + "/frames/" + kColumns[c].name;
    Status s = Create(cs.get());
    if (!s.ok()) {
      r->Fail(std::string("create ") + kColumns[c].name + ": " + s.ToString());
      return;
    }
    cols.push_back(std::move(cs));
  }
  const double setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  const double setup_cpu_s = static_cast<double>(ProcessCpuNs() - c0) / 1e9;

  std::vector<pglo::StatsSnapshot> before;
  uint64_t fsyncs0 = 0;
  for (auto& cs : cols) {
    before.push_back(cs->db.Stats());
    fsyncs0 += cs->db.txns().commit_log().fsync_count();
  }
  Tracer on(a.trace, 1), off;
  Samples read_s, write_s;   // wall, per round, all columns
  double sim_read = 0, sim_write = 0;  // round 0
  std::vector<std::pair<std::string, double>> cells;  // round 0
  double stored_ratio = 0, written_ratio = 0;
  Samples traced_round_s, untraced_round_s;
  uint64_t frames_done = 0;
  // Process CPU time and user bytes of the read and write operations, over
  // every round.
  int64_t read_cpu_ns = 0, write_cpu_ns = 0;
  uint64_t read_bytes = 0, write_bytes = 0;
  uint64_t read_txns = 0, read_txn_fsyncs = 0;
  // Every round leaves more versions behind, so later rounds run slower: a
  // run does a fixed number of rounds (not as many as fit in the time),
  // which keeps its work independent of the program's speed.
  const uint64_t rounds = std::max<uint64_t>(
      kMinRounds, static_cast<uint64_t>(std::lround(a.seconds / kNominalRoundS)));
  for (uint64_t round = 0; round < rounds; ++round) {
    const bool traced = a.trace && round % 2 == 1;
    Tracer* tr = traced ? &on : &off;
    uint64_t written0 = StorageBytesWritten();
    double round_read = 0, round_write = 0;
    uint64_t user_written = 0;
    for (size_t c = 0; c < cols.size(); ++c) {
      ColumnState* cs = cols[c].get();
      const bool worm = IsWorm(*cs->col);
      const Op* ops = worm ? kWormOps : kDiskOps;
      const size_t nops = worm ? 3 : 6;
      for (size_t o = 0; o < nops; ++o) {
        // Round 0: the figure benches' operation seeds.
        uint64_t seed = round == 0 ? 1000 + o : Mix(a.seed, round, c * 16 + o);
        OpResult res;
        std::string problem;
        ++r->attempted;
        const uint64_t f0 = cs->db.txns().commit_log().fsync_count();
        Status s = RunOp(cs, ops[o], seed, tr, &res, &problem);
        if (!s.ok()) {
          r->OperationFailed(std::string(cs->col->name) + " " +
                             OpLabel(ops[o]) + ": " + s.ToString());
          (void)cs->session->Abort();
          continue;
        }
        if (!problem.empty()) r->Fail(problem);
        frames_done += res.frames;
        if (IsWrite(ops[o])) {
          round_write += res.wall_s;
          user_written += res.frames * kFrameSize;
          write_cpu_ns += res.cpu_ns;
          write_bytes += res.frames * kFrameSize;
        } else {
          round_read += res.wall_s;
          read_cpu_ns += res.cpu_ns;
          read_bytes += res.frames * kFrameSize;
          ++read_txns;
          read_txn_fsyncs += cs->db.txns().commit_log().fsync_count() - f0;
        }
        if (round == 0) {
          (IsWrite(ops[o]) ? sim_write : sim_read) += res.sim_s;
          cells.emplace_back(std::string("lo.") + cs->col->name + "." +
                                 OpLabel(ops[o]) + ".sim_s",
                             res.sim_s);
        }
      }
    }
    read_s.Add(round_read);
    std::fprintf(stderr, "# round %llu: read %.3f s, write %.3f s\n",
                 static_cast<unsigned long long>(round), round_read,
                 round_write);
    write_s.Add(round_write);
    (traced ? traced_round_s : untraced_round_s).Add(round_read + round_write);
    if (round == 0) {
      uint64_t on_disk = 0;
      for (auto& cs : cols) on_disk += BytesOnDisk(cs->dir);
      stored_ratio = Ratio(static_cast<double>(on_disk),
                           static_cast<double>(cols.size() * kNumFrames *
                                               kFrameSize));
      written_ratio =
          Ratio(static_cast<double>(StorageBytesWritten() - written0),
                static_cast<double>(user_written));
    }
  }

  if (!a.trace) {
    // Over the run's fixed rounds: later rounds are slower by design, and
    // every run weighs the same rounds.
    r->Metric("read_cpu_ms_per_mb",
              Ratio(static_cast<double>(read_cpu_ns) / 1e6,
                    static_cast<double>(read_bytes) / 1e6),
              "ms/MB", read_txns);
    r->Metric("write_cpu_ms_per_mb",
              Ratio(static_cast<double>(write_cpu_ns) / 1e6,
                    static_cast<double>(write_bytes) / 1e6),
              "ms/MB", r->attempted - read_txns);
    r->Metric("stored_bytes_per_user_byte", stored_ratio, "ratio");
    r->Metric("written_bytes_per_user_byte", written_ratio, "ratio");
    r->Metric("setup_s", setup_cpu_s, "s", 1);
    r->Metric("setup_wall_s", setup_s, "s", 1);
    // The paper's own figures, in the table only: the wall seconds follow
    // the host's load, and the simulated seconds are round 0's.
    r->Metric("read_s", read_s.Sum() / read_s.count(), "s", read_s.count());
    r->Metric("write_s", write_s.Sum() / write_s.count(), "s",
              write_s.count());
    r->Metric("sim_read_s", sim_read, "sim_s", 1);
    r->Metric("sim_write_s", sim_write, "sim_s", 1);
  } else {
    TraceAnalysis an = Analyze(on.spans());
    for (const auto& [name, sim] : cells) r->Metric(name, sim, "sim_s", 1);
    r->Metric("lo.read_us_per_frame", an.total_us["lo.read"].P50(), "us",
              an.total_us["lo.read"].count());
    r->Metric("lo.write_us_per_frame", an.total_us["lo.write"].P50(), "us",
              an.total_us["lo.write"].count());
    r->Metric("client.round_trips_per_txn", 0, "count");
    r->Metric("db.begin_us", an.total_us["db.begin"].P50(), "us",
              an.total_us["db.begin"].count());
    r->Metric("db.commit_us", an.total_us["db.commit"].P50(), "us",
              an.total_us["db.commit"].count());
    r->Metric("txn.clog_fsyncs_per_read_txn",
              Ratio(static_cast<double>(read_txn_fsyncs),
                    static_cast<double>(read_txns)),
              "count", read_txns);
    CounterWindow window;
    uint64_t commits = r->attempted;
    window.clog_fsyncs = 0 - fsyncs0;
    for (size_t c = 0; c < cols.size(); ++c) {
      window.delta.Add(StatsDelta(before[c], cols[c]->db.Stats()));
      window.clog_fsyncs += cols[c]->db.txns().commit_log().fsync_count();
    }
    window.commits = commits;
    window.txns = commits;
    window.lookups = frames_done;
    ReportCounterMetrics(window, r);
    Tracer codec_spans(true, 2);
    ReportCodecs(&cols[0]->db, &codec_spans, r);
    r->Metric("trace.overhead_pct",
              100.0 * (Ratio(traced_round_s.P50(), untraced_round_s.P50()) - 1),
              "%", traced_round_s.count());
    ReportCoverage(an, r);
    on.Merge(codec_spans);
    if (!WriteSpans(a.outdir + "/paper_frames.trace.json", on.spans())) {
      r->Fail("cannot write the span file");
    }
  }

  // The frame oracle's own check: a one-byte-corrupted frame and a frame
  // that is not there must both be caught.
  Bytes frame(kFrameSize, 0);
  ColumnState* probe = cols[2].get();
  auto n = ReadFrame(probe, 7, frame.data());
  if (!n.ok() || *n != kFrameSize || !FrameMatches(*probe, 7, frame.data())) {
    r->Fail("frame oracle rejects an intact frame");
  }
  frame[100] ^= 0x80;
  if (FrameMatches(*probe, 7, frame.data())) {
    r->Fail("frame oracle missed a one-byte-corrupted read");
  }
  std::fill(frame.begin(), frame.end(), 0);
  n = ReadFrame(probe, kNumFrames, frame.data());
  if (n.ok() && *n == kFrameSize && FrameMatches(*probe, 7, frame.data())) {
    r->Fail("frame oracle missed a missing frame");
  }
  for (auto& cs : cols) {
    cs->session.reset();
    Status s = cs->db.Close();
    if (!s.ok()) r->Fail(std::string("close: ") + s.ToString());
  }
}

}  // namespace lobench
