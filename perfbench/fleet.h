// The device fleet behind `serve` and `cold`: ~2k integer series of 20k
// points each, drawn group by group from workload::MakeGas (19 sensors per
// group, one shared clock per group), and the dashboard queries over it.
#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "workloads.h"

namespace perfbench {

struct Fleet {
  static constexpr size_t kRows = 20'000;       // points per series
  static constexpr size_t kWindowPoints = 200;  // points per query window
  static constexpr size_t kWindows = kRows / kWindowPoints;

  std::vector<std::string> names;  // series names, "fleet.s<k>"
  std::vector<int> group;          // series -> clock group
  std::vector<std::vector<int64_t>> group_times;
  std::vector<int64_t> median;     // per-series median value (SUM filter)
};

/// Receives one generated series; a non-OK status stops generation.
using SeriesSink = std::function<etsqp::Status(
    const std::string& name, const int64_t* times, const int64_t* values,
    size_t n)>;

/// Generates `series` series from `seed`, handing each to `sink` as soon as
/// its group exists, so at most one group of raw points is alive at a time.
/// Fills `fleet` (names, clocks, medians) when non-null.
etsqp::Status GenerateFleet(uint64_t seed, size_t series, Fleet* fleet,
                            const SeriesSink& sink);

/// The three dashboard shapes on series `s`:
///   0  SELECT AVG(v) ... WHERE time in window `window`
///   1  SELECT MAX(v) ... WHERE time >= start of the newest two windows
///      SW(start, span/8) — a sparkline; open-ended because a windowed
///      aggregate with an upper time bound returns windows past the bound
///      today (README.md, excluded shapes)
///   2  SELECT SUM(v) ... WHERE time in window `window` AND v > median
std::string FleetSql(const Fleet& fleet, size_t s, size_t window, int shape);

/// The correctness gate of `serve` and `cold`: loads the scalar oracle with
/// the `series` fleet series of `seed` and checks every kept result against
/// it (CheckAgainstOracle), recording the checked and distinct counts.
/// Fails only when the oracle cannot be built.
etsqp::Status CheckFleetResults(uint64_t seed, size_t series,
                                const std::vector<std::vector<Checked>>& results,
                                Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
