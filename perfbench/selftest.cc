// Harness self-tests (`run.py --self-test`): seeded inputs are reproducible
// and seed-sensitive, single-client counters repeat exactly, and traced
// self times are non-negative and add up to their parent span.
#include <algorithm>
#include <cstdio>

#include "fleet.h"
#include "workloads.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Traced requests over a one-group fleet: every span's self time is
/// non-negative, and the children of each request cover it up to the
/// harness's own bookkeeping, which stays within kRootSelfTolerance of the
/// request for the median request.
void CheckTraceAccounting() {
  constexpr double kRootSelfTolerance = 0.10;
  Database::Options options;
  options.shards = 4;
  options.cache_budget_bytes = 1 << 20;
  Database db(options);
  Fleet fleet;
  Status st = GenerateFleet(7, 19, &fleet,
                            [&](const std::string& name, const int64_t* t,
                                const int64_t* v, size_t n) {
                              WriteLog log;
                              return LoadSeries(&db, name, t, v, n, 4096, &log);
                            });
  if (st.ok()) st = db.Flush();
  Expect(st.ok(), "trace: fleet set-up");
  db.SetCollectStats(true);
  Tracer tracer;
  Layers layers;
  LayerProbe probe(&db, &tracer, &layers);
  Rng rng(11);
  size_t failed = 0;
  for (uint64_t q = 0; q < 400; ++q) {
    std::string sql =
        FleetSql(fleet, rng.Below(19), rng.Below(Fleet::kWindows),
                 static_cast<int>(rng.Below(3)));
    uint64_t query_ns = 0;
    if (!probe.Request("default", sql, q, &query_ns).ok()) ++failed;
  }
  Expect(failed == 0, "trace: every traced request succeeds");

  const std::vector<Span>& spans = tracer.spans();
  const std::vector<int64_t> self = tracer.SelfTimes();
  bool non_negative = true;
  bool sums = true;
  std::vector<double> root_self_share;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (self[i] < 0) non_negative = false;
    if (spans[i].parent >= 0) continue;
    // Root: its self time plus its children's self times (leaves) must be
    // exactly its duration.
    int64_t total = self[i];
    for (size_t c = i + 1; c < spans.size() && spans[c].parent >= 0; ++c) {
      if (spans[c].parent == static_cast<int>(i)) total += self[c];
    }
    if (total != static_cast<int64_t>(spans[i].end - spans[i].start)) {
      sums = false;
    }
    root_self_share.push_back(static_cast<double>(self[i]) /
                              static_cast<double>(spans[i].end - spans[i].start));
  }
  Expect(!spans.empty() && non_negative, "trace: self times are non-negative");
  Expect(sums, "trace: children and self time add up to each request span");
  const double share = Median(root_self_share);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "trace: harness time outside layer spans is %.1f%% of the "
                "median request (tolerance %.0f%%)",
                100 * share, 100 * kRootSelfTolerance);
  Expect(share <= kRootSelfTolerance, buf);
}

}  // namespace

int RunSelfTest(const Args&) {
  Expect(ScanInputDigest(1) == ScanInputDigest(1),
         "inputs: scan, same seed gives identical inputs");
  Expect(ScanInputDigest(1) != ScanInputDigest(2),
         "inputs: scan, different seeds give different inputs");
  Expect(FleetInputDigest(1) == FleetInputDigest(1),
         "inputs: serve/cold fleet, same seed gives identical inputs");
  Expect(FleetInputDigest(1) != FleetInputDigest(2),
         "inputs: serve/cold fleet, different seeds give different inputs");
  Expect(IngestInputDigest(1) == IngestInputDigest(1),
         "inputs: ingest, same seed gives identical inputs");
  Expect(IngestInputDigest(1) != IngestInputDigest(2),
         "inputs: ingest, different seeds give different inputs");

  const ScanCounts a = ScanPassCounts(3, 0.05);
  const ScanCounts b = ScanPassCounts(3, 0.05);
  const ScanCounts c = ScanPassCounts(4, 0.05);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "counts: single-client scan pass repeats exactly (pages_total "
                "%llu, pages_pruned %llu, tuples_in_pages %llu, "
                "bytes_per_point %.6f)",
                static_cast<unsigned long long>(a.pages_total),
                static_cast<unsigned long long>(a.pages_pruned),
                static_cast<unsigned long long>(a.tuples_in_pages),
                a.bytes_per_point);
  Expect(a == b && a.pages_total > 0, buf);
  Expect(!(a == c), "counts: a different seed changes the counters");

  CheckTraceAccounting();

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
