#include "harness.h"

#include <immintrin.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/cpu.h"
#include "common/metrics.h"
#include "simd/merge_simd.h"
#include "simd/transposed_unpack_avx512.h"

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--serve-rate") {
      args->serve_rate = std::strtod(value.c_str(), &end);
    } else if (flag == "--slo-ms") {
      args->slo_ms = std::strtod(value.c_str(), &end);
    } else if (flag == "--git-rev") {
      args->git_rev = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->self_test) return true;
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (args->seconds <= 0 || args->serve_rate <= 0 || args->slo_ms <= 0) {
    *error = "--seconds, --serve-rate and --slo-ms must be > 0";
    return false;
  }
  return true;
}

uint64_t NowNs() { return etsqp::metrics::NowNanos(); }

void WaitUntil(uint64_t due_ns) {
  constexpr uint64_t kSpinNs = 30'000;
  static thread_local bool slack_set = false;
  if (!slack_set) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    slack_set = true;
  }
  uint64_t now = NowNs();
  if (now + kSpinNs < due_ns) {
    uint64_t sleep_ns = due_ns - kSpinNs - now;
    timespec ts{static_cast<time_t>(sleep_ns / 1'000'000'000),
                static_cast<long>(sleep_ns % 1'000'000'000)};
    nanosleep(&ts, nullptr);
  }
  while (NowNs() < due_ns) _mm_pause();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

void Report::Mismatch(const std::string& what) {
  correct = false;
  if (mismatches.size() < 8) mismatches.push_back(what);
}

Phase::Phase(Report* report, std::string name)
    : report_(report), name_(std::move(name)), start_(NowNs()) {}

Phase::~Phase() {
  report_->Record("phase." + name_ + "_s",
                  static_cast<double>(NowNs() - start_) / 1e9, "s");
}

std::map<std::string, std::string> Fingerprint(const Args& args) {
  std::map<std::string, std::string> fp;
  fp["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  std::string isa = etsqp::CpuHasAvx2() ? "avx2" : "scalar";
  if (etsqp::simd::Avx512Available()) isa += ",avx512";
  const char* merge_isa[] = {"scalar", "sse", "avx2", "avx512"};
  fp["isa"] = isa;
  fp["merge_isa"] = merge_isa[static_cast<int>(etsqp::simd::BestMergeIsa())];
  fp["compiler"] = __VERSION__;
  fp["git_rev"] = args.git_rev;
  fp["seed"] = std::to_string(args.seed);
  fp["workload"] = args.workload;
  fp["trace"] = args.trace ? "1" : "0";
  return fp;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(
    const std::vector<std::pair<std::string, MetricValue>>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, m] = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(name) + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + JsonEscape(m.unit) + "\"";
    if (m.samples >= 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

}  // namespace

void PrintReport(const Args& args, const Report& report) {
  // Record line: fingerprint, every measured figure with its sample count,
  // and the correctness-gate outcome.
  std::string rec = "{\"fingerprint\": {";
  bool first = true;
  for (const auto& [k, v] : Fingerprint(args)) {
    if (!first) rec += ", ";
    first = false;
    rec += "\"" + k + "\": \"" + JsonEscape(v) + "\"";
  }
  rec += "}, \"notes\": {";
  first = true;
  for (const auto& [k, v] : report.notes) {
    if (!first) rec += ", ";
    first = false;
    rec += "\"" + JsonEscape(k) + "\": \"" + JsonEscape(v) + "\"";
  }
  rec += "}, \"mismatches\": [";
  for (size_t i = 0; i < report.mismatches.size(); ++i) {
    if (i > 0) rec += ", ";
    rec += "\"" + JsonEscape(report.mismatches[i]) + "\"";
  }
  std::vector<std::pair<std::string, MetricValue>> all = report.metrics;
  all.insert(all.end(), report.record.begin(), report.record.end());
  rec += "], \"metrics\": " + MetricsJson(all) + "}";
  std::printf("record: %s\n", rec.c_str());

  // Result line: exactly correct/attempted/failed/metrics.
  std::vector<std::pair<std::string, MetricValue>> plain;
  for (const auto& [name, m] : report.metrics) {
    plain.push_back({name, {m.value, m.unit, -1}});
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      MetricsJson(plain).c_str());
  std::fflush(stdout);
}

bool SameResult(const etsqp::exec::QueryResult& got,
                const etsqp::exec::QueryResult& want, std::string* why) {
  if (got.column_names != want.column_names) {
    *why = "column names differ";
    return false;
  }
  if (got.columns.size() != want.columns.size()) {
    *why = "column count differs";
    return false;
  }
  for (size_t c = 0; c < got.columns.size(); ++c) {
    const std::vector<double>& a = got.columns[c];
    const std::vector<double>& b = want.columns[c];
    if (a.size() != b.size()) {
      *why = "column " + std::to_string(c) + " has " +
             std::to_string(a.size()) + " rows, oracle " +
             std::to_string(b.size());
      return false;
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] == b[i] || (std::isnan(a[i]) && std::isnan(b[i]))) continue;
      double tol = 1e-9 * std::max(std::fabs(a[i]), std::fabs(b[i]));
      if (std::fabs(a[i] - b[i]) <= tol) continue;
      char buf[160];
      std::snprintf(buf, sizeof(buf), "column %zu row %zu: %.17g vs oracle %.17g",
                    c, i, a[i], b[i]);
      *why = buf;
      return false;
    }
  }
  return true;
}

uint64_t ResultDigest(const etsqp::exec::QueryResult& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t w) {
    for (int b = 0; b < 8; ++b) h = (h ^ ((w >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
  };
  for (const std::string& name : r.column_names) {
    for (char c : name) mix(static_cast<unsigned char>(c));
    mix(0xff);
  }
  for (const std::vector<double>& col : r.columns) {
    mix(col.size());
    for (double v : col) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

int Tracer::Begin(const std::string& name, int parent, uint64_t query) {
  spans_.push_back({name, NowNs(), 0, parent, query});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) { spans_[span].end = NowNs(); }

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<int64_t>(spans_[i].end - spans_[i].start);
  }
  // Children of one parent run one after another, so the part of the
  // parent they cover is the sum of their durations.
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -=
          static_cast<int64_t>(spans_[i].end - spans_[i].start);
    }
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<int64_t> self = SelfTimes();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"query\": %llu, "
                 "\"parent\": %d, \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"self_ns\": %lld}\n",
                 i, JsonEscape(s.name).c_str(),
                 static_cast<unsigned long long>(s.query), s.parent,
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

std::string TracePath(const Args& args) {
  return args.out_dir + "/trace-" + args.workload + ".jsonl";
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(uint64_t uniform_bits) const {
  double u = static_cast<double>(uniform_bits >> 11) * 0x1.0p-53;
  size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(i, cdf_.size() - 1);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
