#ifndef LOBENCH_WORKLOADS_H_
#define LOBENCH_WORKLOADS_H_

#include "common.h"

namespace lobench {

/// Each workload sets up its databases, measures for args.seconds, checks
/// every output against the benchmark's own model, and fills `report`
/// with its end-to-end metrics (untraced run) or per-layer metrics
/// (traced run). README.md describes each one.
void RunServedMix(const Args& args, Report* report);
void RunPaperFrames(const Args& args, Report* report);
void RunInversionChurn(const Args& args, Report* report);

}  // namespace lobench

#endif  // LOBENCH_WORKLOADS_H_
