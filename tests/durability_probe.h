#ifndef PGLO_TESTS_DURABILITY_PROBE_H_
#define PGLO_TESTS_DURABILITY_PROBE_H_

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>

#include "db/database.h"

namespace pglo {
namespace testing {

/// The durability work a database has done so far, read from outside the
/// engine: commit-log fdatasyncs and bytes, xid-file bytes, buffer-pool
/// write-backs and data syncs, and entries into the commit serializer. Two
/// equal probes around a transaction's end mean the end cost none of it.
struct DurabilityProbe {
  uint64_t clog_fsyncs = 0;
  std::string clog_bytes;
  std::string xid_bytes;
  uint64_t writebacks = 0;
  uint64_t data_syncs = 0;
  uint64_t commit_serializations = 0;

  static DurabilityProbe Take(Database& db) {
    DurabilityProbe p;
    p.clog_fsyncs = db.txns().commit_log().fsync_count();
    p.clog_bytes = ReadFile(db.options().dir + "/clog");
    p.xid_bytes = ReadFile(db.options().dir + "/xid");
    StatsSnapshot s = db.Stats();
    p.writebacks = s.Value("bufpool.writebacks");
    p.data_syncs = s.Value("wait.bufpool.data_sync.acquires");
    p.commit_serializations = s.Value("wait.txn.commit_serialize.acquires");
    return p;
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
};

/// Expects `after` to show no durability work since `before`.
inline void ExpectNoDurabilityWork(const DurabilityProbe& before,
                                   const DurabilityProbe& after) {
  EXPECT_EQ(after.clog_fsyncs, before.clog_fsyncs) << "commit-log fdatasync";
  EXPECT_EQ(after.clog_bytes, before.clog_bytes) << "commit-log bytes";
  EXPECT_EQ(after.xid_bytes, before.xid_bytes) << "xid-file bytes";
  EXPECT_EQ(after.writebacks, before.writebacks) << "buffer-pool flush";
  EXPECT_EQ(after.data_syncs, before.data_syncs) << "data syncfs";
  EXPECT_EQ(after.commit_serializations, before.commit_serializations)
      << "commit serializer";
}

}  // namespace testing
}  // namespace pglo

#endif  // PGLO_TESTS_DURABILITY_PROBE_H_
