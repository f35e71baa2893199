#include "fleet.h"

#include <algorithm>
#include <cstdio>

#include "harness.h"
#include "workload/generators.h"

namespace perfbench {

etsqp::Status GenerateFleet(uint64_t seed, size_t series, Fleet* fleet,
                            const SeriesSink& sink) {
  Rng rng(seed);
  size_t made = 0;
  for (int g = 0; made < series; ++g) {
    etsqp::workload::Dataset ds =
        etsqp::workload::MakeGas(Fleet::kRows, rng.Next());
    if (fleet != nullptr) fleet->group_times.push_back(ds.series[0].times);
    for (const etsqp::workload::SeriesData& s : ds.series) {
      if (made == series) break;
      char name[32];
      std::snprintf(name, sizeof(name), "fleet.s%04zu", made);
      if (fleet != nullptr) {
        fleet->names.push_back(name);
        fleet->group.push_back(g);
        std::vector<int64_t> sorted = s.values;
        std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                         sorted.end());
        fleet->median.push_back(sorted[sorted.size() / 2]);
      }
      etsqp::Status st =
          sink(name, s.times.data(), s.values.data(), s.times.size());
      if (!st.ok()) return st;
      ++made;
    }
  }
  return etsqp::Status::Ok();
}

uint64_t FleetInputDigest(uint64_t seed) {
  uint64_t h = 0xcbf29ce484222325ULL;
  Status st = GenerateFleet(seed, 2000, nullptr,
                            [&h](const std::string&, const int64_t* t,
                                 const int64_t* v, size_t n) {
                              h = HashWords(h, t, n);
                              h = HashWords(h, v, n);
                              return Status::Ok();
                            });
  return st.ok() ? h : 0;
}

std::string FleetSql(const Fleet& fleet, size_t s, size_t window, int shape) {
  const std::vector<int64_t>& t = fleet.group_times[fleet.group[s]];
  const char* name = fleet.names[s].c_str();
  char buf[256];
  if (shape == 1) {
    // Sparkline of the newest 2 windows: open-ended time filter, 8 windows.
    const size_t first = Fleet::kRows - 2 * Fleet::kWindowPoints;
    const long long lo = t[first];
    const long long dt = std::max<long long>(
        1, (t.back() - t[first]) / 8 + 1);
    std::snprintf(buf, sizeof(buf),
                  "SELECT MAX(v) FROM %s WHERE time >= %lld SW(%lld, %lld)",
                  name, lo, lo, dt);
    return buf;
  }
  const size_t first = window * Fleet::kWindowPoints;
  const long long lo = t[first];
  const long long hi = t[first + Fleet::kWindowPoints - 1];
  if (shape == 0) {
    std::snprintf(buf, sizeof(buf),
                  "SELECT AVG(v) FROM %s WHERE time >= %lld AND time <= %lld",
                  name, lo, hi);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "SELECT SUM(v) FROM %s WHERE time >= %lld AND time <= %lld "
                  "AND v > %lld",
                  name, lo, hi, static_cast<long long>(fleet.median[s]));
  }
  return buf;
}

Status CheckFleetResults(uint64_t seed, size_t series,
                         const std::vector<std::vector<Checked>>& results,
                         Report* report) {
  Database oracle(OracleOptions());
  Status st = GenerateFleet(seed, series, nullptr,
                            [&](const std::string& name, const int64_t* t,
                                const int64_t* v, size_t n) {
                              return LoadOracleSeries(&oracle, name, t, v, n);
                            });
  if (st.ok()) st = oracle.Flush();
  if (!st.ok()) return st;
  size_t checked = 0;
  for (const auto& per_client : results) checked += per_client.size();
  const size_t distinct = CheckAgainstOracle(oracle, results, 4, report);
  report->Record("checked_results", static_cast<double>(checked), "count");
  report->Record("distinct_statements", static_cast<double>(distinct),
                 "count");
  return Status::Ok();
}

}  // namespace perfbench
