// The pglo benchmark program.
//
//   lobench --workload served_mix|paper_frames|inversion_churn --seed N
//           --seconds S --trace 0|1 --workdir DIR [--outdir DIR]
//
// Prints a metric table and, as the last line of standard output, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit status 0 when
// every check passed, 1 when a check failed, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lobench --workload served_mix|paper_frames|"
               "inversion_churn --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--outdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  lobench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--outdir") {
      args.outdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.workdir.empty() || args.seconds <= 0) {
    return Usage();
  }
  if (args.outdir.empty()) args.outdir = args.workdir;
  unsigned hw = std::thread::hardware_concurrency();
  args.threads = static_cast<int>(hw == 0 ? 1 : (hw < 4 ? hw : 4));

  // Write back what earlier processes left dirty on this filesystem, so
  // that the run's own commits do not pay for it.
  lobench::SyncFilesystem(args.workdir);

  lobench::Report report;
  if (args.workload == "served_mix") {
    lobench::RunServedMix(args, &report);
  } else if (args.workload == "paper_frames") {
    lobench::RunPaperFrames(args, &report);
  } else if (args.workload == "inversion_churn") {
    lobench::RunInversionChurn(args, &report);
  } else {
    return Usage();
  }
  report.Print(args.workload, args.trace);
  return report.correct() ? 0 : 1;
}
