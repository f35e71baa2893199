// Measurement plumbing shared by every perfbench workload: arguments,
// latency samples and percentiles, the result/record printer, an in-memory
// span tracer, the machine fingerprint, and query-result comparison for the
// correctness gate.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/expr.h"

namespace perfbench {

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Open-loop request rate of `serve` (requests/s).
  double serve_rate = 4000;
  /// Latency limit behind slo_miss_ratio (ms).
  double slo_ms = 1.0;
  std::string git_rev = "unknown";
  /// Directory (inside the checkout) for traces, records and temp files.
  std::string out_dir = ".bench_build/perfbench-out";
  bool self_test = false;
};

/// Parses `--flag value` pairs; returns false (with a message) on error.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error);

/// Monotonic nanoseconds.
uint64_t NowNs();
/// Blocks until NowNs() >= due: sleeps, then spins the last few
/// microseconds so open-loop sends are not late by the timer slack.
void WaitUntil(uint64_t due_ns);
inline double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Linear-interpolated percentile (q in [0, 1]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);

/// One metric as printed: value, unit, and (for percentiles) sample count.
struct MetricValue {
  double value = 0;
  std::string unit;
  int64_t samples = -1;  // -1 = not a sampled statistic
};

/// What one run prints. `metrics` go on the result line (the set
/// BENCHMARK.json declares for the trace mode); `record` holds every other
/// figure the run measured and is printed on the line before.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, MetricValue>> metrics;
  std::vector<std::pair<std::string, MetricValue>> record;
  std::vector<std::string> mismatches;  // correctness-gate failures
  std::map<std::string, std::string> notes;

  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples = -1) {
    metrics.push_back({name, {value, unit, samples}});
  }
  void Record(const std::string& name, double value, const std::string& unit,
              int64_t samples = -1) {
    record.push_back({name, {value, unit, samples}});
  }
  /// A wrong answer: fails the run's correctness gate (not a failed op).
  void Mismatch(const std::string& what);
};

/// Wall time of one phase of a run (set-up, oracle, measure, check),
/// recorded as `phase.<name>_s` when the scope ends.
class Phase {
 public:
  Phase(Report* report, std::string name);
  ~Phase();
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Report* report_;
  std::string name_;
  uint64_t start_;
};

/// nproc, ISA flags, compiler, git revision — stamped on every record.
std::map<std::string, std::string> Fingerprint(const Args& args);

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();

/// Prints the record line and then the result line (the last stdout line).
void PrintReport(const Args& args, const Report& report);

/// Compares a query result against the oracle's: same shape, same column
/// names, values equal up to a relative tolerance (float sums may
/// reassociate across strategies). Fills `why` on mismatch.
bool SameResult(const etsqp::exec::QueryResult& got,
                const etsqp::exec::QueryResult& want, std::string* why);

/// Order-sensitive digest of a result: column names, shape and the exact
/// bit pattern of every value. Integer-series aggregates are exact on every
/// engine path, so equal answers have equal digests.
uint64_t ResultDigest(const etsqp::exec::QueryResult& r);

/// --- Tracing ---------------------------------------------------------------
/// Spans of the traced run: kept in memory, written out when the run ends.
/// A span's self time is its duration minus the part its children cover.
struct Span {
  std::string name;
  uint64_t start = 0;
  uint64_t end = 0;
  int parent = -1;   // index into the tracer's span list; -1 = root
  uint64_t query = 0;  // request id shared by one request's spans
};

class Tracer {
 public:
  int Begin(const std::string& name, int parent, uint64_t query);
  void End(int span);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span (ns), in span order.
  std::vector<int64_t> SelfTimes() const;
  /// Writes one JSON object per span to `path`.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Where a traced run writes its spans: one file per workload in
/// args.out_dir, replaced by the next traced run of that workload.
std::string TracePath(const Args& args);

/// Zipf-distributed index in [0, n) with exponent `s` (inverse-CDF table).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(uint64_t uniform_bits) const;

 private:
  std::vector<double> cdf_;
};

/// splitmix64: the benchmark's seeded stream of pseudo-random words.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
