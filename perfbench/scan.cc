// `scan`: the paper's Table III Q1-Q6 over Table II-shaped Clim, Gas and
// Time data (default generator sizes, ~30M points), TS2DIFF pages sealed in
// memory on 4 shards with the result cache off. One closed-loop client runs
// the mix with engine threads = nproc - 1.
#include <unistd.h>

#include <algorithm>
#include <map>
#include <optional>

#include "workloads.h"

namespace perfbench {

namespace {

struct ScanQuery {
  std::string sql;
  int q = 0;  // Table III number
  std::string label;  // "Q<n>.<dataset>"
  bool aggregate() const { return q <= 3; }
};

/// The Table III statements over one dataset's first two series, with the
/// fig10 parameters: ~1000-point windows, Q3 filter at the median value
/// (selectivity ~0.5).
std::vector<ScanQuery> DatasetQueries(const etsqp::workload::Dataset& ds) {
  const auto& a = ds.series[0];
  const std::string s1 = ds.name + "." + a.name;
  const std::string s2 = ds.name + "." + ds.series[1].name;
  const long long t_min = a.times.front();
  const long long dt = std::max<long long>(
      1, (a.times.back() - a.times.front()) * 1000 /
             static_cast<long long>(a.times.size()));
  std::vector<int64_t> sorted = a.values;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const long long median = sorted[sorted.size() / 2];
  char buf[256];
  std::vector<ScanQuery> out;
  std::snprintf(buf, sizeof(buf), "SELECT SUM(v) FROM %s SW(%lld, %lld)",
                s1.c_str(), t_min, dt);
  out.push_back({buf, 1, ""});
  std::snprintf(buf, sizeof(buf), "SELECT AVG(v) FROM %s SW(%lld, %lld)",
                s1.c_str(), t_min, dt);
  out.push_back({buf, 2, ""});
  std::snprintf(buf, sizeof(buf), "SELECT SUM(v) FROM %s WHERE v > %lld",
                s1.c_str(), median);
  out.push_back({buf, 3, ""});
  out.push_back({"SELECT " + s1 + ".v + " + s2 + ".v FROM " + s1 + ", " + s2,
                 4, ""});
  out.push_back({"SELECT * FROM " + s1 + " UNION " + s2 + " ORDER BY TIME", 5, ""});
  out.push_back({"SELECT * FROM " + s1 + ", " + s2, 6, ""});
  for (ScanQuery& q : out) q.label = "Q" + std::to_string(q.q) + "." + ds.name;
  return out;
}

/// Table II-shaped Clim, Gas and Time at `scale` x the default sizes.
std::vector<etsqp::workload::Dataset> ScanInputs(uint64_t seed, double scale) {
  namespace wl = etsqp::workload;
  auto rows = [scale](size_t n) {
    return std::max<size_t>(4096, static_cast<size_t>(n * scale));
  };
  Rng rng(seed);
  std::vector<wl::Dataset> data;
  data.push_back(wl::MakeClimate(rows(1'000'000), rng.Next()));
  data.push_back(wl::MakeGas(rows(925'000), rng.Next()));
  data.push_back(wl::MakeTimestamp(rows(4'000'000), rng.Next()));
  return data;
}

}  // namespace

uint64_t ScanInputDigest(uint64_t seed) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& ds : ScanInputs(seed, 1.0)) {
    for (const auto& s : ds.series) {
      h = HashWords(h, s.times.data(), s.times.size());
      h = HashWords(h, s.values.data(), s.values.size());
    }
  }
  return h;
}

ScanCounts ScanPassCounts(uint64_t seed, double scale) {
  Database::Options options;
  options.threads = 1;
  options.shards = 4;
  Database db(options);
  std::vector<std::string> names;
  std::vector<ScanQuery> round;
  for (const auto& ds : ScanInputs(seed, scale)) {
    for (const auto& s : ds.series) {
      WriteLog log;
      names.push_back(ds.name + "." + s.name);
      if (!LoadSeries(&db, names.back(), s.times.data(), s.values.data(),
                      s.times.size(), 64 << 10, &log)
               .ok()) {
        std::abort();
      }
    }
    for (const ScanQuery& q : DatasetQueries(ds)) round.push_back(q);
  }
  if (!db.Flush().ok()) std::abort();
  ScanCounts c;
  for (const ScanQuery& q : round) {
    Result<QueryResult> r = db.Query(q.sql);
    if (!r.ok()) std::abort();
    c.pages_total += r.value().stats.pages_total;
    c.pages_pruned += r.value().stats.pages_pruned;
    c.tuples_in_pages += r.value().stats.tuples_in_pages;
  }
  c.bytes_per_point = BytesPerPoint(&db, names);
  return c;
}

int RunScan(const Args& args, Report* report) {
  std::optional<Phase> phase;
  namespace wl = etsqp::workload;
  phase.emplace(report, "inputs");
  std::vector<wl::Dataset> data = ScanInputs(args.seed, 1.0);

  // Engine threads = nproc - 1, the client thread being the first runner:
  // with one runner per core, any host stall made a straggler, and across
  // the same 6 seeds the Q1-Q3 median spread 0.27 against 0.12 (README.md).
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  Database::Options options;
  options.mode = Database::Mode::kSimd;
  options.threads = std::max(1, nproc - 1);
  options.shards = 4;
  options.cache_budget_bytes = 0;

  EndToEnd e;
  std::unique_ptr<Database> db;
  std::vector<std::string> all_series;
  phase.emplace(report, "setup");
  for (int k = 0; k < kSetups; ++k) {
    db.reset();
    auto fresh = std::make_unique<Database>(options);
    WriteLog log;
    all_series.clear();
    for (const wl::Dataset& ds : data) {
      for (const wl::SeriesData& s : ds.series) {
        std::string name = ds.name + "." + s.name;
        Status st = LoadSeries(fresh.get(), name, s.times.data(),
                               s.values.data(), s.times.size(), 64 << 10,
                               &log);
        if (!st.ok()) {
          std::fprintf(stderr, "scan set-up: %s\n", st.ToString().c_str());
          return 1;
        }
        all_series.push_back(name);
      }
    }
    if (!TimedFlush(fresh.get(), &log).ok()) return 1;
    BookSetup(log, true, &e);
    db = std::move(fresh);
  }
  e.bytes_per_point = BytesPerPoint(db.get(), all_series);

  phase.emplace(report, "oracle");
  // Only the first two series of each dataset are queried; drop the rest
  // of the raw inputs.
  for (wl::Dataset& ds : data) {
    ds.series.resize(2);
    ds.series.shrink_to_fit();
  }

  // The query mix: per dataset Q1-Q3 once and Q4-Q6 twice, so the median
  // of all queries falls inside the merge-query cluster and the median of
  // Q1-Q3 inside the aggregate cluster (README.md), and the oracle answer
  // for each distinct statement from a scalar single-shard database over
  // the same inputs.
  std::vector<ScanQuery> round;
  Database oracle(OracleOptions());
  for (const wl::Dataset& ds : data) {
    std::vector<ScanQuery> qs = DatasetQueries(ds);
    for (int i = 0; i < 3; ++i) round.push_back(qs[i]);
    for (int rep = 0; rep < 2; ++rep) {
      for (int i = 3; i < 6; ++i) round.push_back(qs[i]);
    }
    for (int a = 0; a < 2; ++a) {
      const wl::SeriesData& s = ds.series[a];
      if (!LoadOracleSeries(&oracle, ds.name + "." + s.name, s.times.data(),
                            s.values.data(), s.times.size())
               .ok()) {
        return 1;
      }
    }
  }
  if (!oracle.Flush().ok()) return 1;
  std::map<std::string, QueryResult> expected;
  for (const ScanQuery& q : round) {
    if (expected.count(q.sql)) continue;
    Result<QueryResult> want = oracle.Query(q.sql);
    if (!want.ok()) {
      std::fprintf(stderr, "oracle failed on %s: %s\n", q.sql.c_str(),
                   want.status().ToString().c_str());
      return 1;
    }
    expected[q.sql] = std::move(want).value();
  }
  // Keep Q4-Q6 inputs' pages for the merge-kernel probe, then drop the raw
  // inputs before measuring.
  std::vector<std::string> probe_series;
  for (const wl::Dataset& ds : data) {
    probe_series.push_back(ds.name + "." + ds.series[0].name);
  }
  const std::string merge_left = data[0].name + "." + data[0].series[0].name;
  const std::string merge_right = data[0].name + "." + data[0].series[1].name;
  data.clear();
  data.shrink_to_fit();

  auto check = [&](const ScanQuery& q, const Result<QueryResult>& r) {
    if (!r.ok()) return;
    std::string why;
    if (!SameResult(r.value(), expected[q.sql], &why)) {
      report->Mismatch("Q" + std::to_string(q.q) + " " + q.sql + ": " + why);
    }
  };

  phase.emplace(report, "measure");
  // Warm-up: one round, so lazy pool start-up and first-touch are paid
  // before timing.
  for (const ScanQuery& q : round) check(q, db->Query(q.sql));

  std::map<std::string, std::vector<double>> per_query_ms;
  auto closed_loop = [&](double seconds, LayerProbe* probe, QueryLog* log) {
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    uint64_t ready = NowNs();
    uint64_t id = 0;
    while (NowNs() < deadline) {
      for (const ScanQuery& q : round) {
        uint64_t t0 = NowNs();
        uint64_t query_ns = 0;
        Result<QueryResult> r =
            probe != nullptr ? probe->Request("default", q.sql, id++, &query_ns)
                             : db->Query(q.sql);
        uint64_t t1 = NowNs();
        if (probe == nullptr) query_ns = t1 - t0;
        log->Add(r, q.aggregate(), query_ns, query_ns, t0 - ready, args.slo_ms);
        per_query_ms[q.label].push_back(NsToMs(query_ns));
        check(q, r);
        ready = NowNs();
        if (ready >= deadline) break;
      }
    }
  };

  if (!args.trace) {
    closed_loop(args.seconds, nullptr, &e.queries);
    report->attempted = e.queries.attempted;
    report->failed = e.queries.failed;
    EmitEndToEnd(args, e, report);
  } else {
    // Untraced first half, traced second half; the difference of their
    // query medians is the tracing overhead.
    QueryLog untraced, traced;
    closed_loop(args.seconds / 2, nullptr, &untraced);
    Tracer tracer;
    Layers layers;
    db->SetCollectStats(true);
    LayerProbe probe(db.get(), &tracer, &layers);
    layers.cache_before = db->cache_stats();
    closed_loop(args.seconds / 2, &probe, &traced);
    layers.cache_after = db->cache_stats();
    layers.queries = traced.attempted;
    layers.untraced_p50_ms = Percentile(untraced.latency_ms, 0.5);
    layers.traced_p50_ms = Percentile(traced.latency_ms, 0.5);
    layers.lag_ms = traced.lag_ms;
    for (double ms : e.writes.batch_ms) layers.append_us.push_back(ms * 1e3);
    layers.ingest = db->ingest_stats();
    layers.compaction = db->compaction_stats();
    std::vector<std::shared_ptr<const etsqp::storage::Page>> pages;
    for (const std::string& s : probe_series) {
      auto p = SeriesPages(db.get(), s, 64);
      pages.insert(pages.end(), p.begin(), p.end());
    }
    ProbeKernels(pages, SeriesPages(db.get(), merge_left, 256),
                 SeriesPages(db.get(), merge_right, 256), &layers);
    untraced.Merge(traced);
    report->attempted = untraced.attempted;
    report->failed = untraced.failed;
    EmitLayers(layers, report);
    tracer.Write(TracePath(args));
  }
  phase.reset();
  for (const auto& [label, ms] : per_query_ms) {
    report->Record("scan." + label + "_p50_ms", Median(ms), "ms",
                   static_cast<int64_t>(ms.size()));
  }
  report->notes["mix"] =
      "per round and dataset (Clim, Gas, Time): Q1-Q3 once, Q4-Q6 twice";
  report->notes["engine"] = "4 shards, threads=" +
                            std::to_string(options.threads) +
                            ", cache off, 1 closed-loop client";
  return 0;
}

}  // namespace perfbench
