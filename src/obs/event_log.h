#ifndef PGLO_OBS_EVENT_LOG_H_
#define PGLO_OBS_EVENT_LOG_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "device/sim_clock.h"

namespace pglo {

class JsonWriter;

/// Taxonomy of structured events (DESIGN.md §12). One enum, not free-form
/// strings, so consumers (pglo_top, tests, post-mortem tooling) can filter
/// without parsing and a typo cannot silently create a new event kind.
enum class EventType : uint8_t {
  kTxnBegin = 0,       ///< a=0 (the first write assigns the XID), b=as-of
  kTxnCommit,          ///< a=xid (0: wrote nothing), b=commit time
  kTxnAbort,           ///< a=xid (0: wrote nothing)
  kCrashInjected,      ///< detail=site, a=write tick that crashed
  kTransientError,     ///< detail=site, a=burst length so far
  kCorruptionInjected, ///< detail=site, a=block index, b=bit offset
  kIoRetry,            ///< detail=site, a=attempt number
  kRecoveryStart,      ///< reopen after a (simulated) power failure
  kRecoveryRepair,     ///< detail=what was repaired
  kReadAheadRamp,      ///< detail=layer, a=window reached, b=start block
  kSlowOp,             ///< detail=root span, a=duration ns, b=budget ns
  kCrashDump,          ///< the recorder serialized itself; a=event total
  kWaitContended,      ///< detail=wait class, a=wall wait ns, b=backend id
  kRecoveryFsmRebuild, ///< a=entries repaired, b=entries dropped
};

/// Stable lowercase dotted name for an event type ("txn.begin", ...).
const char* EventTypeName(EventType type);

/// One structured event. `a` and `b` are type-specific numeric arguments
/// (see EventType); `detail` is a short site/operation label.
struct StructuredEvent {
  EventType type = EventType::kTxnBegin;
  uint64_t seq = 0;     ///< monotonically increasing append index
  uint64_t sim_ns = 0;  ///< simulated time at append
  uint64_t a = 0;
  uint64_t b = 0;
  std::string detail;
};

/// Bounded ring of structured events — the typed replacement for ad-hoc
/// logging across txn, fault, recovery, and read-ahead paths. Appends are
/// O(1) and never allocate once the ring has wrapped (slots are reused);
/// when full, the oldest event is overwritten, so the log always holds the
/// most recent `capacity` events leading up to whatever went wrong.
///
/// Appends and reads are internally serialized, so concurrent backends can
/// share one log; events interleave in append order.
class EventLog {
 public:
  explicit EventLog(size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity) {
    ring_.reserve(capacity_);
  }
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Events are stamped against this clock; unset = stamped 0.
  void SetClock(const SimClock* clock) { clock_ = clock; }

  void Append(EventType type, std::string detail, uint64_t a = 0,
              uint64_t b = 0);

  size_t capacity() const { return capacity_; }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
  }
  /// Total events ever appended (retained + overwritten).
  uint64_t total_appended() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_seq_;
  }
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_seq_ - ring_.size();
  }

  /// Retained events, oldest first.
  std::vector<StructuredEvent> Events() const;

  /// Count of retained events of `type`.
  size_t CountOf(EventType type) const;

  void Clear();

  /// {"total": N, "dropped": N, "entries": [{seq, sim_ns, type, detail,
  ///  a, b}, ...]} — entries oldest first.
  void ToJson(JsonWriter* w) const;

 private:
  std::vector<StructuredEvent> EventsLocked() const;

  const SimClock* clock_ = nullptr;
  size_t capacity_;
  mutable std::mutex mu_;
  size_t head_ = 0;  ///< slot the next append writes (once wrapped)
  uint64_t next_seq_ = 0;
  std::vector<StructuredEvent> ring_;
};

}  // namespace pglo

#endif  // PGLO_OBS_EVENT_LOG_H_
