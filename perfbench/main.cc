// perfbench runner: `etsqp_perfbench --workload <scan|serve|ingest|cold>
// --seed N --seconds S --trace 0|1` builds the workload's state from seeded
// inputs, measures for S seconds, checks every result, and prints a record
// line followed by the result line (the last line of stdout).
// `--self-test` runs the harness self-tests instead.
#include <cstdio>
#include <filesystem>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "etsqp_perfbench: %s\n", error.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (args.self_test) return RunSelfTest(args);

  Report report;
  int rc = 0;
  if (args.workload == "scan") {
    rc = RunScan(args, &report);
  } else if (args.workload == "serve") {
    rc = RunServe(args, &report);
  } else if (args.workload == "ingest") {
    rc = RunIngest(args, &report);
  } else if (args.workload == "cold") {
    rc = RunCold(args, &report);
  } else {
    std::fprintf(stderr, "etsqp_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  if (report.attempted == 0) {
    std::fprintf(stderr, "etsqp_perfbench: no operation was attempted\n");
    return 1;
  }
  PrintReport(args, report);
  if (!report.correct) {
    for (const std::string& m : report.mismatches) {
      std::fprintf(stderr, "correctness gate: %s\n", m.c_str());
    }
  }
  return 0;
}
