#include "bench/harness.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string_view>

#include "common/json.h"
#include "common/random.h"

namespace pglo {
namespace bench {

const char* OpName(Op op) {
  switch (op) {
    case Op::kSeqRead:
      return "10MB sequential read";
    case Op::kSeqWrite:
      return "10MB sequential write";
    case Op::kRandRead:
      return "1MB random read";
    case Op::kRandWrite:
      return "1MB random write";
    case Op::kLocalRead:
      return "1MB read, 80/20 locality";
    case Op::kLocalWrite:
      return "1MB write, 80/20 locality";
  }
  return "?";
}

bool OpIsWrite(Op op) {
  return op == Op::kSeqWrite || op == Op::kRandWrite ||
         op == Op::kLocalWrite;
}

DatabaseOptions PaperOptions(const std::string& dir) {
  DatabaseOptions options;
  options.dir = dir;
  options.charge_devices = true;
  // 10 MB page cache for the DBMS and for the simulated OS, so neither
  // side hides the 51.2 MB object entirely.
  options.buffer_pool_frames = 1250;
  options.ufs_params.cache_blocks = 1250;
  options.ufs_params.capacity_blocks = 32768;  // 256 MB partition
  options.ufs_params.num_inodes = 64;
  // §9.3: the WORM storage manager's magnetic disk cache.
  options.worm_cache_blocks = 1250;
  // A Sequent Symmetry CPU of the era. Calibrated so that the 8 instr/byte
  // codec costs f-chunk ≈13 % on the sequential ops (§9.2).
  options.cpu_mips = 65.0;
  // Per page/block access CPU (pin, hash, latch, record assembly): the
  // extra metadata hops of the DBMS paths (B-tree descent, segment index,
  // size record) cost real 1992 cycles, which is part of why v-segment
  // trails f-chunk and f-chunk trails the raw file system.
  options.page_access_instructions = 2500;
  return options;
}

Result<Oid> LoBenchRunner::CreateObject(const BenchConfig& config) {
  Transaction* txn = session_->Begin();
  LoSpec spec;
  spec.kind = config.kind;
  spec.codec = config.codec;
  spec.smgr = config.smgr;
  spec.chunk_size = config.chunk_size;
  spec.max_segment = config.max_segment;
  if (config.kind == StorageKind::kUserFile) {
    spec.ufile_path = "bench_" + config.name;
  }
  PGLO_ASSIGN_OR_RETURN(Oid oid, db_->large_objects().Create(txn, spec));
  PGLO_ASSIGN_OR_RETURN(std::unique_ptr<LargeObject> lo,
                        db_->large_objects().Instantiate(txn, oid));
  FrameParams params;
  for (uint64_t frame = 0; frame < scale_.num_frames; ++frame) {
    Bytes data = MakeFrame(kCreateSeed, frame, params);
    PGLO_RETURN_IF_ERROR(lo->Write(txn, frame * kFrameSize, Slice(data)));
  }
  PGLO_RETURN_IF_ERROR(session_->Commit().status());
  PGLO_RETURN_IF_ERROR(db_->ufs().Sync());
  return oid;
}

Result<double> LoBenchRunner::RunOp(Oid oid, Op op, uint64_t seed) {
  Transaction* txn = session_->Begin();
  PGLO_ASSIGN_OR_RETURN(std::unique_ptr<LargeObject> lo,
                        db_->large_objects().Instantiate(txn, oid));
  Random rng(seed);
  FrameParams params;
  Bytes read_buf(kFrameSize);

  SimTimer timer(&db_->clock());
  auto do_frame = [&](uint64_t frame, uint64_t replace_tag) -> Status {
    uint64_t off = frame * kFrameSize;
    if (OpIsWrite(op)) {
      Bytes data = MakeFrame(seed ^ 0x5555, frame + replace_tag, params);
      return lo->Write(txn, off, Slice(data));
    }
    PGLO_ASSIGN_OR_RETURN(size_t n,
                          lo->Read(txn, off, kFrameSize, read_buf.data()));
    if (n != kFrameSize) return Status::Internal("short benchmark read");
    return Status::OK();
  };

  switch (op) {
    case Op::kSeqRead:
    case Op::kSeqWrite: {
      // "Read 2,500 frames (10MB) sequentially." Start at frame 0.
      for (uint64_t i = 0; i < scale_.seq_frames; ++i) {
        PGLO_RETURN_IF_ERROR(do_frame(i, 1));
      }
      break;
    }
    case Op::kRandRead:
    case Op::kRandWrite: {
      // "250 frames randomly distributed among the 12,500 frames."
      for (uint64_t i = 0; i < scale_.rand_frames; ++i) {
        PGLO_RETURN_IF_ERROR(do_frame(rng.Uniform(scale_.num_frames), 2));
      }
      break;
    }
    case Op::kLocalRead:
    case Op::kLocalWrite: {
      // "the next frame was read sequentially 80% of the time and a new
      // random frame was read 20% of the time."
      uint64_t frame = rng.Uniform(scale_.num_frames);
      for (uint64_t i = 0; i < scale_.rand_frames; ++i) {
        PGLO_RETURN_IF_ERROR(do_frame(frame, 3));
        if (rng.OneInHundred(80)) {
          frame = (frame + 1) % scale_.num_frames;
        } else {
          frame = rng.Uniform(scale_.num_frames);
        }
      }
      break;
    }
  }
  PGLO_RETURN_IF_ERROR(session_->Commit().status());
  if (OpIsWrite(op)) {
    // The file implementations keep their writes in the OS buffer cache;
    // force them out so every column pays for durability of its writes
    // inside the measured interval. (No-op for the DBMS implementations,
    // whose commit above already forced their pages.)
    PGLO_RETURN_IF_ERROR(db_->ufs().Sync());
  }
  return timer.ElapsedSeconds();
}

Result<LargeObject::StorageFootprint> LoBenchRunner::Footprint(Oid oid) {
  Transaction* txn = session_->Begin();
  Result<LargeObject::StorageFootprint> fp =
      db_->large_objects().Footprint(txn, oid);
  PGLO_RETURN_IF_ERROR(session_->Abort());
  return fp;
}

namespace {

/// Sum of every counter whose name starts with `prefix` and ends with
/// `suffix` — e.g. ("smgr.", ".blocks_read") totals block reads across all
/// storage managers.
uint64_t SumMatching(const StatsSnapshot& snap, std::string_view prefix,
                     std::string_view suffix) {
  uint64_t total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.size() < prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    total += value;
  }
  return total;
}

}  // namespace

BenchArgs ParseBenchArgs(int argc, char** argv, const std::string& bench_name,
                         const std::string& default_workdir,
                         const char* extra_usage) {
  auto usage = [&](std::FILE* out) {
    std::fprintf(out,
                 "usage: %s [--quick] [--no-stats] [--profile] "
                 "[--trace=FILE]\n"
                 "           [--json=FILE | --no-json] [--readahead=N] "
                 "%s[workdir]\n"
                 "Writes BENCH_%s[_quick].json unless --json or --no-json "
                 "says otherwise.\n",
                 argv[0], extra_usage, bench_name.c_str());
  };
  BenchArgs args;
  args.bench_name = bench_name;
  args.workdir = default_workdir;
  bool no_json = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--no-stats") {
      args.stats = false;
    } else if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--profile") {
      args.profile = true;
    } else if (arg == "--no-json") {
      no_json = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      args.trace_path = arg.substr(8);
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json_path = arg.substr(7);
    } else if (arg.rfind("--readahead=", 0) == 0) {
      args.readahead = std::atoi(arg.c_str() + 12);
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      usage(stderr);
      std::exit(2);
    } else {
      args.workdir = arg;
    }
  }
  if (args.json_path.empty() && !no_json) {
    // Quick runs get their own file so a CI gate can never overwrite the
    // committed full-scale trajectory results.
    args.json_path =
        "BENCH_" + bench_name + (args.quick ? "_quick" : "") + ".json";
  }
  // Tracing and profiling reconstruct spans, which only exist with stats.
  if (!args.stats && (!args.trace_path.empty() || args.profile)) {
    std::fprintf(stderr,
                 "--no-stats disables spans; ignoring --trace/--profile\n");
    args.trace_path.clear();
    args.profile = false;
  }
  return args;
}

std::map<std::string, std::string> ConfigInfo(const BenchConfig& config) {
  return {
      {"kind", std::string(StorageKindToString(config.kind))},
      {"codec", config.codec},
      {"smgr", std::to_string(config.smgr)},
      {"chunk_size", std::to_string(config.chunk_size)},
  };
}

BenchRun::BenchRun(const BenchArgs& args) : args_(args) {
  if (!args_.trace_path.empty()) {
    Result<std::unique_ptr<ChromeTraceWriter>> writer =
        ChromeTraceWriter::Open(args_.trace_path);
    if (writer.ok()) {
      trace_ = std::move(writer).value();
    } else {
      std::fprintf(stderr, "trace disabled: %s\n",
                   writer.status().ToString().c_str());
    }
  }
}

BenchRun::~BenchRun() {
  Status s = Finish();
  if (!s.ok()) {
    std::fprintf(stderr, "bench emitter: %s\n", s.ToString().c_str());
  }
}

void BenchRun::StartConfig(const std::string& name, Database* db,
                           const std::map<std::string, std::string>& info) {
  FinishConfig();
  current_config_ = name;
  configs_.push_back({name, info});
  current_db_ = db;
  if (db == nullptr || db->stats_registry() == nullptr) return;
  tee_ = TeeSink();
  if (args_.profile) {
    profiler_ = std::make_unique<Profiler>();
    tee_.Add(profiler_.get());
  }
  if (trace_ != nullptr) {
    trace_->BeginProcess(name);
    tee_.Add(trace_.get());
  }
  if (!tee_.empty()) db->stats_registry()->SetTraceSink(&tee_);
}

BenchRun::ResultRow* BenchRun::RowFor(const std::string& op) {
  for (auto it = rows_.rbegin(); it != rows_.rend(); ++it) {
    if (it->config == current_config_ && it->op == op) return &*it;
  }
  rows_.push_back(ResultRow{current_config_, op, 0.0, false, {}});
  return &rows_.back();
}

void BenchRun::RecordResult(const std::string& op, double seconds) {
  ResultRow* row = RowFor(op);
  row->simulated_seconds = seconds;
  row->has_seconds = true;
}

void BenchRun::RecordValue(const std::string& op, const std::string& key,
                           double value) {
  RowFor(op)->values[key] = value;
}

void BenchRun::FinishConfig() {
  if (current_db_ != nullptr) {
    if (current_db_->stats_registry() != nullptr) {
      current_db_->stats_registry()->SetTraceSink(nullptr);
    }
    snapshots_.emplace_back(current_config_, current_db_->Stats());
    if (profiler_ != nullptr) {
      std::printf("\nProfile [%s]\n%s", current_config_.c_str(),
                  profiler_->ToString().c_str());
      profiler_.reset();
    }
    current_db_ = nullptr;
  }
  current_config_.clear();
}

Status BenchRun::WriteJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("pglo-bench-v1");
  w.Key("bench");
  w.String(args_.bench_name);
  w.Key("quick");
  w.Bool(args_.quick);
  w.Key("configs");
  w.BeginArray();
  for (const ConfigEntry& config : configs_) {
    w.BeginObject();
    w.Key("name");
    w.String(config.name);
    for (const auto& [key, value] : config.info) {
      w.Key(key);
      w.String(value);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("results");
  w.BeginArray();
  for (const ResultRow& row : rows_) {
    w.BeginObject();
    w.Key("config");
    w.String(row.config);
    w.Key("op");
    w.String(row.op);
    if (row.has_seconds) {
      w.Key("simulated_seconds");
      w.Double(row.simulated_seconds);
    }
    if (!row.values.empty()) {
      w.Key("values");
      w.BeginObject();
      for (const auto& [key, value] : row.values) {
        w.Key(key);
        w.Double(value);
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [config, snap] : snapshots_) {
    w.Key(config);
    w.BeginObject();
    for (const auto& [name, value] : snap.counters) {
      if (value == 0) continue;
      w.Key(name);
      w.Uint(value);
    }
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();

  std::FILE* f = std::fopen(args_.json_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot create " + args_.json_path);
  }
  const std::string& doc = w.str();
  size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  if (std::fclose(f) != 0 || n != doc.size()) {
    return Status::IOError("error writing " + args_.json_path);
  }
  return Status::OK();
}

Status BenchRun::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  FinishConfig();
  Status json_status;
  if (!args_.json_path.empty()) {
    json_status = WriteJson();
    if (json_status.ok()) {
      std::printf("\nResults written to %s\n", args_.json_path.c_str());
    }
  }
  if (trace_ != nullptr) {
    PGLO_RETURN_IF_ERROR(trace_->Finish());
    std::printf("Trace written to %s (load in chrome://tracing)\n",
                args_.trace_path.c_str());
    trace_.reset();
  }
  return json_status;
}

std::string FormatStatsTable(const std::string& title,
                             const std::vector<std::string>& columns,
                             const std::vector<StatsSnapshot>& snapshots) {
  struct Row {
    const char* label;
    std::function<double(const StatsSnapshot&)> value;
    int precision;
  };
  auto hit_rate = [](const StatsSnapshot& s) {
    double hits = static_cast<double>(s.Value("bufpool.hits"));
    double misses = static_cast<double>(s.Value("bufpool.misses"));
    return hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0;
  };
  const std::vector<Row> rows = {
      {"bufpool hit rate %", hit_rate, 1},
      {"bufpool misses",
       [](const StatsSnapshot& s) {
         return static_cast<double>(s.Value("bufpool.misses"));
       },
       0},
      {"smgr blocks read",
       [](const StatsSnapshot& s) {
         return static_cast<double>(SumMatching(s, "smgr.", ".blocks_read"));
       },
       0},
      {"smgr blocks written",
       [](const StatsSnapshot& s) {
         return static_cast<double>(
             SumMatching(s, "smgr.", ".blocks_written"));
       },
       0},
      {"ufs blocks read",
       [](const StatsSnapshot& s) {
         return static_cast<double>(s.Value("ufs.blocks_read"));
       },
       0},
      {"ufs blocks written",
       [](const StatsSnapshot& s) {
         return static_cast<double>(s.Value("ufs.blocks_written"));
       },
       0},
      {"device seeks",
       [](const StatsSnapshot& s) {
         return static_cast<double>(SumMatching(s, "device.", ".seeks"));
       },
       0},
      {"device blocks transferred",
       [](const StatsSnapshot& s) {
         return static_cast<double>(
             SumMatching(s, "device.", ".blocks_read") +
             SumMatching(s, "device.", ".blocks_written"));
       },
       0},
  };

  std::string out = title + "\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-28s", "Counter");
  out += buf;
  for (const std::string& col : columns) {
    std::snprintf(buf, sizeof(buf), " %12s", col.c_str());
    out += buf;
  }
  out += "\n";
  for (const Row& row : rows) {
    std::snprintf(buf, sizeof(buf), "%-28s", row.label);
    out += buf;
    for (const StatsSnapshot& snap : snapshots) {
      std::snprintf(buf, sizeof(buf), " %12.*f", row.precision,
                    row.value(snap));
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::string FormatTable(const std::string& title,
                        const std::vector<std::string>& columns,
                        const std::vector<std::string>& row_labels,
                        const std::vector<std::vector<double>>& cells) {
  std::string out = title + "\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-28s", "Operation");
  out += buf;
  for (const std::string& col : columns) {
    std::snprintf(buf, sizeof(buf), " %12s", col.c_str());
    out += buf;
  }
  out += "\n";
  for (size_t r = 0; r < row_labels.size(); ++r) {
    std::snprintf(buf, sizeof(buf), "%-28s", row_labels[r].c_str());
    out += buf;
    for (double v : cells[r]) {
      std::snprintf(buf, sizeof(buf), " %12.1f", v);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

}  // namespace bench
}  // namespace pglo
