#include "db/database.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>

#include "common/logging.h"
#include "fault/faulty_smgr.h"
#include "fault/retry.h"
#include "storage/free_space_map.h"

namespace pglo {

namespace {
/// Reserved relfile for the free-space-map sidecar on the disk manager.
/// Fixed relfiles in use elsewhere: 10 = LO catalog, 11 = class catalog,
/// 12-14 = Inversion DIRECTORY/STORAGE/FILESTAT, 15 = index catalog,
/// 16 = Inversion directory index. User relations start at Oid 1000.
constexpr Oid kFsmRelfile = 17;
}  // namespace

Database::Database() = default;

Database::~Database() {
  if (open_) {
    Status s = Close();
    if (!s.ok()) {
      PGLO_LOG(Error) << "database close failed: " << s.ToString();
    }
  }
}

Status Database::Open(const DatabaseOptions& options) {
  if (open_) return Status::InvalidArgument("database already open");
  options_ = options;
  if (options_.dir.empty()) {
    return Status::InvalidArgument("DatabaseOptions.dir is required");
  }
  // mkdir -p: create every missing component of the path.
  for (size_t i = 1; i <= options_.dir.size(); ++i) {
    if (i == options_.dir.size() || options_.dir[i] == '/') {
      ::mkdir(options_.dir.substr(0, i).c_str(), 0755);
    }
  }
  return OpenInternal(/*after_crash=*/false);
}

Status Database::OpenInternal(bool after_crash) {
  Status s = OpenBody(after_crash);
  if (!s.ok()) {
    // An unclean Open is exactly what the black box exists for: whatever
    // the recorder captured before the failure (the recovery-start event,
    // injected faults, repairs attempted) is the post-mortem.
    if (recorder_ != nullptr && !options_.blackbox_path.empty()) {
      Status dump = recorder_->DumpToFile(blackbox_file(),
                                          "open-failed: " + s.ToString());
      if (!dump.ok()) {
        PGLO_LOG(Error) << "blackbox dump failed: " << dump.ToString();
      }
    }
  }
  return s;
}

Status Database::OpenBody(bool after_crash) {
  // A database whose very first commit (the catalog bootstrap) never
  // became durable has no committed state at all: everything under dir is
  // scratch from the interrupted creation, and half-created files (a
  // partially formatted ufs.img, a catalog heap whose relation files were
  // never flushed) cannot be reopened. Wipe and re-initialize.
  bool wiped = false;
  {
    struct stat st;
    const std::string clog_path = options_.dir + "/clog";
    if (::stat(clog_path.c_str(), &st) == 0 &&
        st.st_size < static_cast<off_t>(CommitLog::RecordSize())) {
      std::error_code ec;
      for (const auto& entry :
           std::filesystem::directory_iterator(options_.dir, ec)) {
        // The black-box dump is post-mortem evidence of the interrupted
        // creation, not half-created database state: it survives the wipe.
        if (!options_.blackbox_path.empty() &&
            entry.path().filename() == options_.blackbox_path) {
          continue;
        }
        std::filesystem::remove_all(entry.path(), ec);
      }
      wiped = true;
    }
  }
  recovered_from_crash_ = after_crash;
  clock_ = std::make_unique<SimClock>();
  cpu_ = std::make_unique<CpuCostModel>(clock_.get(), options_.cpu_mips);
  if (options_.enable_stats) {
    stats_ = std::make_unique<StatsRegistry>();
    stats_->SetClock(clock_.get());
  }
  EventLog* events = nullptr;
  if (stats_ != nullptr && options_.enable_flight_recorder) {
    recorder_ = std::make_unique<FlightRecorder>(options_.recorder_options,
                                                 stats_.get());
    stats_->SetRecorder(recorder_.get());
    events = &recorder_->events();
    if (after_crash) events->Append(EventType::kRecoveryStart, "");
    if (wiped) {
      events->Append(EventType::kRecoveryRepair,
                     "wiped half-created database");
    }
  }
  if (recorder_ != nullptr) recorder_->SetActivity(&activity_);
  if (stats_ != nullptr && options_.enable_wait_instrumentation) {
    waits_ = std::make_unique<WaitStatsTable>();
    waits_->Bind(stats_.get(), events, options_.wait_event_threshold_ns);
  }
  if (stats_ != nullptr) {
    c_deprecated_txn_api_ = stats_->counter("db.deprecated_txn_api");
  }

  DeviceModel* disk_dev = nullptr;
  DeviceModel* ufs_dev = nullptr;
  DeviceModel* worm_cache_dev = nullptr;
  DeviceModel* worm_dev = nullptr;
  DeviceModel* mem_dev = nullptr;
  if (options_.charge_devices) {
    disk_device_ = std::make_unique<MagneticDiskModel>(clock_.get(),
                                                       options_.disk_params);
    ufs_device_ = std::make_unique<MagneticDiskModel>(clock_.get(),
                                                      options_.disk_params);
    worm_cache_device_ = std::make_unique<MagneticDiskModel>(
        clock_.get(), options_.disk_params);
    worm_device_ = std::make_unique<WormJukeboxModel>(clock_.get(),
                                                      options_.worm_params);
    memory_device_ = std::make_unique<MemoryDeviceModel>(
        clock_.get(), options_.memory_params);
    disk_dev = disk_device_.get();
    ufs_dev = ufs_device_.get();
    worm_cache_dev = worm_cache_device_.get();
    worm_dev = worm_device_.get();
    mem_dev = memory_device_.get();
    if (stats_ != nullptr) {
      disk_device_->BindStats(stats_.get(), "disk");
      ufs_device_->BindStats(stats_.get(), "ufs");
      worm_cache_device_->BindStats(stats_.get(), "worm-cache");
      worm_device_->BindStats(stats_.get(), "worm");
      memory_device_->BindStats(stats_.get(), "nvram");
    }
  }

  FaultInjector* injector = options_.fault_injector;
  if (injector != nullptr && stats_ != nullptr) {
    injector->BindStats(stats_.get());
  }
  if (injector != nullptr) injector->BindEventLog(events);
  // With an injector installed, the disk and memory managers get the
  // FaultyStorageManager decorator. The WORM manager consults the injector
  // directly instead (its burn and map-append are distinct crash points a
  // wrapper at the block interface could not separate).
  auto maybe_faulty =
      [injector](std::unique_ptr<StorageManager> smgr)
      -> std::unique_ptr<StorageManager> {
    if (injector == nullptr) return smgr;
    return std::make_unique<FaultyStorageManager>(std::move(smgr), injector);
  };

  smgrs_ = std::make_unique<SmgrRegistry>();
  if (injector != nullptr || options_.io_retry_attempts > 1) {
    RetryPolicy policy;
    policy.max_attempts = options_.io_retry_attempts;
    policy.backoff_start_ns = options_.io_retry_backoff_ns;
    policy.clock = clock_.get();
    if (stats_ != nullptr) {
      policy.retries = stats_->counter("fault.io_retries");
    }
    policy.events = events;
    if (waits_ != nullptr) {
      policy.wait = waits_->point(WaitEvent::kIoRetryBackoff);
    }
    smgrs_->SetRetryPolicy(policy);
  }
  PGLO_RETURN_IF_ERROR(smgrs_->Register(
      kSmgrDisk, maybe_faulty(std::make_unique<DiskSmgr>(
                     options_.dir + "/disk", disk_dev))));
  PGLO_RETURN_IF_ERROR(smgrs_->Register(
      kSmgrMemory, maybe_faulty(std::make_unique<MainMemorySmgr>(mem_dev))));
  auto worm = std::make_unique<WormSmgr>(options_.dir, worm_dev,
                                         worm_cache_dev,
                                         options_.worm_cache_blocks);
  worm->SetFaultInjector(injector);
  worm->SetEventLog(events);
  PGLO_RETURN_IF_ERROR(worm->Open());
  worm_ = worm.get();
  PGLO_RETURN_IF_ERROR(smgrs_->Register(kSmgrWorm, std::move(worm)));
  if (stats_ != nullptr) {
    for (uint8_t id : {kSmgrDisk, kSmgrMemory, kSmgrWorm}) {
      Result<StorageManager*> smgr = smgrs_->Get(id);
      if (smgr.ok()) smgr.value()->BindStats(stats_.get());
    }
  }

  pool_ = std::make_unique<BufferPool>(smgrs_.get(),
                                       options_.buffer_pool_frames);
  if (stats_ != nullptr) pool_->BindStats(stats_.get());
  pool_->BindWaits(waits_.get());
  pool_->SetEventLog(events);
  pool_->SetReadAhead(options_.readahead_pages);
  // Commit-time force-to-disk syncs the whole filesystem in one syscall
  // (the database directory holds every data file): with K backends each
  // owning relation files, per-file fdatasyncs would cost a commit batch
  // 2K serial journal commits; one syncfs costs one.
  dir_fd_ = ::open(options_.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd_ >= 0) pool_->SetSyncFile(dir_fd_);
  if (options_.charge_devices && options_.page_access_instructions > 0) {
    pool_->SetAccessCost(cpu_.get(), options_.page_access_instructions);
  }

  // Persistent free-space map (DESIGN.md §15). The sidecar is created only
  // once Vacuum registers entries, so fresh never-vacuumed databases never
  // see the file and stay bit-identical. The map is advisory, so neither a
  // failed load nor a failed post-crash validation may fail the open —
  // both degrade to an empty map.
  pool_->fsm()->SetBackingFile(RelFileId{kSmgrDisk, kFsmRelfile});
  if (stats_ != nullptr) pool_->fsm()->BindStats(stats_.get());
  if (!pool_->fsm()->Load().ok()) pool_->fsm()->ForgetAll();
  if (after_crash) {
    Result<FsmCheckReport> fsm_check =
        pool_->fsm()->CheckAgainstStorage(/*fix=*/true);
    if (!fsm_check.ok()) {
      pool_->fsm()->ForgetAll();
    } else if (fsm_check.value().entries_checked > 0 && events != nullptr) {
      events->Append(EventType::kRecoveryFsmRebuild, "fsm",
                     fsm_check.value().entries_repaired,
                     fsm_check.value().entries_dropped);
    }
  }

  // Fresh database iff there is no commit log yet.
  struct stat st;
  bool fresh = ::stat((options_.dir + "/clog").c_str(), &st) != 0;

  clog_ = std::make_unique<CommitLog>();
  clog_->SetFaultInjector(injector);
  clog_->SetSynchronous(options_.synchronous_commit);
  clog_->BindWaits(waits_.get());
  PGLO_RETURN_IF_ERROR(clog_->Open(options_.dir + "/clog"));
  txns_ = std::make_unique<TxnManager>(clog_.get(), pool_.get());
  txns_->BindEventLog(events);
  txns_->BindWaits(waits_.get());
  txns_->RestoreNextXid();
  PGLO_RETURN_IF_ERROR(txns_->OpenXidFile(options_.dir + "/xid"));

  oids_ = std::make_unique<OidAllocator>();
  PGLO_RETURN_IF_ERROR(oids_->Open(options_.dir + "/oids"));

  ufs_ = std::make_unique<UnixFileSystem>(ufs_dev, options_.ufs_params);
  ufs_->SetFaultInjector(injector);
  if (injector != nullptr || options_.io_retry_attempts > 1) {
    RetryPolicy ufs_policy;
    ufs_policy.max_attempts = options_.io_retry_attempts;
    ufs_policy.backoff_start_ns = options_.io_retry_backoff_ns;
    ufs_policy.clock = clock_.get();
    if (stats_ != nullptr) {
      ufs_policy.retries = stats_->counter("fault.io_retries");
    }
    ufs_policy.events = events;
    if (waits_ != nullptr) {
      ufs_policy.wait = waits_->point(WaitEvent::kIoRetryBackoff);
    }
    ufs_->SetRetryPolicy(ufs_policy);
  }
  // Force-at-commit covers the simulated UNIX file system too: u-file and
  // p-file bytes live outside the buffer pool, so without this sync a
  // committed write could evaporate with the OS cache at the next crash.
  txns_->AddCommitForceHook([this] { return ufs_->Sync(); });
  ufs_->SetReadAhead(options_.readahead_pages);
  if (options_.charge_devices && options_.page_access_instructions > 0) {
    ufs_->SetAccessCost(cpu_.get(), options_.page_access_instructions);
  }
  if (stats_ != nullptr) ufs_->BindStats(stats_.get());
  if (fresh) {
    PGLO_RETURN_IF_ERROR(ufs_->Format(options_.dir + "/ufs.img"));
  } else {
    PGLO_RETURN_IF_ERROR(ufs_->Mount(options_.dir + "/ufs.img"));
  }

  codecs_ = std::make_unique<CodecRegistry>();

  ctx_ = DbContext{clock_.get(), cpu_.get(),  smgrs_.get(),
                   pool_.get(),  clog_.get(), txns_.get(),
                   ufs_.get(),   codecs_.get(), oids_.get(),
                   stats_.get()};

  lo_ = std::make_unique<LoManager>(ctx_);
  if (fresh) {
    // The bootstrap writes no tuple, but it must commit like a writer: its
    // force makes the new catalog files durable, and its record is what
    // marks the database as created (OpenBody's half-created rule).
    Transaction* boot = txns_->Begin();
    boot->AssignXid();
    PGLO_RETURN_IF_ERROR(lo_->Bootstrap(boot));
    PGLO_RETURN_IF_ERROR(txns_->Commit(boot).status());
  }

  open_ = true;
  return Status::OK();
}

void Database::TearDown(bool crash) {
  if (crash) {
    // Volatile state evaporates: nothing may be flushed.
    if (pool_ != nullptr) pool_->CrashDiscardAll();
    if (ufs_ != nullptr) ufs_->CrashDiscard();
    if (worm_ != nullptr) worm_->DropCache();
  }
  // The injector is borrowed and outlives us; its event-log binding must
  // not outlive the recorder it points into.
  if (options_.fault_injector != nullptr) {
    options_.fault_injector->BindEventLog(nullptr);
  }
  // Destruction order: consumers before providers.
  lo_.reset();
  codecs_.reset();
  ufs_.reset();
  oids_.reset();
  txns_.reset();
  clog_.reset();
  pool_.reset();
  if (dir_fd_ >= 0) {
    ::close(dir_fd_);
    dir_fd_ = -1;
  }
  worm_ = nullptr;
  smgrs_.reset();
  memory_device_.reset();
  worm_device_.reset();
  worm_cache_device_.reset();
  ufs_device_.reset();
  disk_device_.reset();
  if (stats_ != nullptr) stats_->SetRecorder(nullptr);
  recorder_.reset();
  waits_.reset();
  c_deprecated_txn_api_ = nullptr;
  stats_.reset();
  cpu_.reset();
  clock_.reset();
  ctx_ = DbContext{};
  open_ = false;
}

Status Database::Close() {
  if (!open_) return Status::OK();
  // Persist the free-space map before the final flush so its sidecar pages
  // ride the same durability pass as everything else.
  PGLO_RETURN_IF_ERROR(pool_->fsm()->Persist());
  PGLO_RETURN_IF_ERROR(pool_->FlushAll());
  PGLO_RETURN_IF_ERROR(ufs_->Sync());
  TearDown(/*crash=*/false);
  return Status::OK();
}

Result<std::string> Database::DumpBlackbox(const std::string& reason) {
  if (recorder_ == nullptr) {
    return Status::InvalidArgument("flight recorder is not enabled");
  }
  std::string path = blackbox_file();
  if (path.empty()) path = options_.dir + "/pglo_blackbox.json";
  PGLO_RETURN_IF_ERROR(recorder_->DumpToFile(path, reason));
  return path;
}

Status Database::SimulateCrashAndReopen() {
  if (!open_) return Status::InvalidArgument("database not open");
  // Serialize the black box before the "power" goes: the dump is the
  // flight recorder's whole point — the history leading up to this crash.
  if (recorder_ != nullptr && !options_.blackbox_path.empty()) {
    Status dump = recorder_->DumpToFile(blackbox_file(), "simulated-crash");
    if (!dump.ok()) {
      PGLO_LOG(Error) << "blackbox dump failed: " << dump.ToString();
    }
  }
  TearDown(/*crash=*/true);
  if (options_.fault_injector != nullptr) {
    // Unsynced log tails (e.g. synchronous_commit=false appends) do not
    // survive the power failure.
    PGLO_RETURN_IF_ERROR(options_.fault_injector->ApplyVolatileLoss());
  }
  return OpenInternal(/*after_crash=*/true);
}

Transaction* Database::Begin() {
  StatInc(c_deprecated_txn_api_);
  return txns_->Begin();
}

Transaction* Database::BeginAsOf(CommitTime as_of) {
  StatInc(c_deprecated_txn_api_);
  return txns_->BeginAsOf(as_of);
}

Result<CommitTime> Database::Commit(Transaction* txn) {
  PGLO_ASSIGN_OR_RETURN(CommitTime time, txns_->Commit(txn));
  PGLO_RETURN_IF_ERROR(lo_->CollectGarbage());
  return time;
}

Status Database::Abort(Transaction* txn) {
  PGLO_RETURN_IF_ERROR(txns_->Abort(txn));
  return lo_->CollectGarbage();
}

}  // namespace pglo
