// dader_perfbench: one run of one workload of the repository benchmark.
//
//   dader_perfbench --workload serve_open|dedup_e2e|block_scale|da_train
//                   --seed N --seconds S --trace 0|1 --scratch DIR
//                   [--tiny 1] [--git_sha SHA]
//
// Prints the host block, a human-readable report and, as the last line of
// standard output, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. perfbench/run.py builds this binary and is the command
// to use; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: dader_perfbench --workload "
               "serve_open|dedup_e2e|block_scale|da_train --seed N "
               "--seconds S --trace 0|1 --scratch DIR [--tiny 1] "
               "[--git_sha SHA]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage(("missing value for " + flag).c_str());
    }
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--tiny") {
      args.tiny = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--git_sha") {
      args.git_sha = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.scratch.empty()) Usage("--scratch is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.scratch);

  const bool reportable = PrintHostBlock(args);
  if (!reportable && !args.trace) {
    std::fprintf(stderr,
                 "refusing to report end-to-end numbers from a non-Release "
                 "or sanitized build\n");
    return 2;
  }

  Report report;
  if (args.workload == "serve_open") {
    RunServeOpen(args, &report);
  } else if (args.workload == "dedup_e2e") {
    RunDedupE2e(args, &report);
  } else if (args.workload == "block_scale") {
    RunBlockScale(args, &report);
  } else if (args.workload == "da_train") {
    RunDaTrain(args, &report);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (!report.invalid.empty()) {
    std::printf("INVALID RUN: %s\n", report.invalid.c_str());
    return 3;
  }
  if (args.trace) FillAbsentLayers(&report);

  std::printf("\n== %s metrics (%s) ==\n", args.workload.c_str(),
              args.trace ? "per-layer, traced run" : "end-to-end");
  report.PrintTable();
  std::printf("attempted=%lld failed=%lld correct=%s\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              report.correct() ? "true" : "false");
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
