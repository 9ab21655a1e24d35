// Repository benchmark binary. Usually started through perfbench/run.py,
// which builds it first:
//
//   vista_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--scratch <dir>] [--trace-out <file>]
//
// Workloads: transfer-resnet50-lr, premat-spill-alexnet, serve-zipf-open.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer metrics of a separate traced run. The last stdout line is the
// JSON verdict; the exit code is non-zero when an output check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  args.scratch_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) {
    std::fprintf(stderr, "usage: %s --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n", argv[0]);
    return 2;
  }

  perfbench::Report report;
  perfbench::NoteRunContext(args, &report);
  if (args.workload == "transfer-resnet50-lr") {
    perfbench::RunTransfer(args, &report);
  } else if (args.workload == "premat-spill-alexnet") {
    perfbench::RunPremat(args, &report);
  } else if (args.workload == "serve-zipf-open") {
    perfbench::RunServe(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return report.Print();
}
