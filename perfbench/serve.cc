// `serve`: dashboard traffic from independent users — an open loop at a
// fixed rate against the fleet (~2k series x 20k points) on 4 shards with
// the result cache on and smaller than the set of distinct results. Series
// popularity and window recency are Zipf-skewed. Latency runs from each
// request's due time.
#include <algorithm>
#include <numeric>
#include <optional>
#include <thread>

#include "fleet.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kSeries = 2000;
constexpr int kClients = 2;
// Queries run inline on the client thread: with 2 pool threads the tiny
// dashboard queries pay worker park/wake-up on every query and p99 swung
// between 2 and 47 ms across identical runs (README.md, noise sources).
constexpr int kEngineThreads = 1;
constexpr size_t kCacheBytes = 1 << 20;
constexpr int kTraceEvery = 8;
constexpr uint64_t kDrainNs = 1'000'000'000;  // traced run: every 8th request of client 0
const char* const kTenant = "dashboard";

/// One client's seeded request stream: a Zipf-popular series (through a
/// seeded permutation, so popular series spread over shards), a
/// recency-skewed window, and one of the three shapes.
class DashboardStream {
 public:
  DashboardStream(const Fleet& fleet, const std::vector<size_t>& perm,
                  const Zipf& series, const Zipf& window, uint64_t seed)
      : fleet_(fleet), perm_(perm), series_(series), window_(window),
        rng_(seed) {}

  std::string Next() {
    size_t s = perm_[series_.Sample(rng_.Next())];
    size_t w = Fleet::kWindows - 1 - window_.Sample(rng_.Next());
    int shape = static_cast<int>(rng_.Below(3));
    return FleetSql(fleet_, s, w, shape);
  }

 private:
  const Fleet& fleet_;
  const std::vector<size_t>& perm_;
  const Zipf& series_;
  const Zipf& window_;
  Rng rng_;
};

}  // namespace

int RunServe(const Args& args, Report* report) {
  std::optional<Phase> phase;
  Database::Options options;
  options.mode = Database::Mode::kSimd;
  options.threads = kEngineThreads;
  options.shards = 4;
  options.cache_budget_bytes = kCacheBytes;

  phase.emplace(report, "setup");
  Fleet fleet;
  EndToEnd e;
  std::unique_ptr<Database> db;
  for (int k = 0; k < kSetups; ++k) {
    db.reset();
    auto fresh = std::make_unique<Database>(options);
    WriteLog log;
    Status st = GenerateFleet(
        args.seed, kSeries, k == 0 ? &fleet : nullptr,
        [&](const std::string& name, const int64_t* t, const int64_t* v,
            size_t n) { return LoadSeries(fresh.get(), name, t, v, n, 4096, &log); });
    if (st.ok()) st = TimedFlush(fresh.get(), &log);
    if (!st.ok()) {
      std::fprintf(stderr, "serve set-up: %s\n", st.ToString().c_str());
      return 1;
    }
    BookSetup(log, true, &e);
    db = std::move(fresh);
  }
  e.bytes_per_point = BytesPerPoint(db.get(), fleet.names);

  Database::TenantOptions tenant;
  tenant.max_concurrent = 1;  // one dashboard query in flight, the rest queue
  tenant.max_queued = 16;
  db->ConfigureTenant(kTenant, tenant);

  Rng rng(args.seed ^ 0x5e7e);
  std::vector<size_t> perm(kSeries);
  std::iota(perm.begin(), perm.end(), 0);
  for (size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Below(i + 1)]);
  }
  const Zipf series_zipf(kSeries, 0.9);
  const Zipf window_zipf(Fleet::kWindows, 0.9);
  std::vector<DashboardStream> streams;
  for (int j = 0; j < kClients; ++j) {
    streams.emplace_back(fleet, perm, series_zipf, window_zipf, rng.Next());
  }
  std::vector<std::vector<Checked>> results(kClients);

  // Open loop: client j sends request i at start + (i * kClients + j) /
  // rate, whatever happened to earlier requests.
  auto open_loop = [&](double seconds, LayerProbe* probe,
                       std::vector<QueryLog>* logs) {
    logs->assign(kClients, QueryLog());
    const uint64_t start = NowNs() + 1'000'000;
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    const double interval = 1e9 / args.serve_rate;
    std::vector<std::thread> clients;
    for (int j = 0; j < kClients; ++j) {
      clients.emplace_back([&, j] {
        QueryLog& log = (*logs)[j];
        for (uint64_t i = 0;; ++i) {
          const uint64_t due =
              start + static_cast<uint64_t>(
                          static_cast<double>(i * kClients + j) * interval);
          if (due >= end) break;
          // Requests due inside the window are all sent, late if a stall
          // left a backlog; only a generator a whole second behind at the
          // end (overload) gives up on the rest.
          if (NowNs() >= end + kDrainNs) {
            log.AddUnsent();
            continue;
          }
          std::string sql = streams[j].Next();
          WaitUntil(due);
          const uint64_t sent = NowNs();
          const bool traced = probe != nullptr && j == 0 && i % kTraceEvery == 0;
          uint64_t query_ns = 0;
          Result<QueryResult> r =
              traced ? probe->Request(kTenant, sql, i / kTraceEvery, &query_ns)
                     : db->Query(kTenant, sql);
          if (!traced) query_ns = NowNs() - sent;
          log.Add(r, true, sent - due + query_ns, query_ns, sent - due,
                  args.slo_ms);
          if (r.ok()) {
            results[j].push_back({std::move(sql), ResultDigest(r.value()),
                                  r.value().num_rows()});
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  };

  phase.emplace(report, "measure");
  // Warm-up: fills the result cache and starts the pool.
  std::vector<QueryLog> logs;
  open_loop(std::min(1.0, args.seconds / 5), nullptr, &logs);

  Layers layers;
  if (!args.trace) {
    open_loop(args.seconds, nullptr, &logs);
    for (const QueryLog& l : logs) e.queries.Merge(l);
    report->attempted = e.queries.attempted;
    report->failed = e.queries.failed;
    EmitEndToEnd(args, e, report);
  } else {
    QueryLog untraced, traced;
    open_loop(args.seconds / 2, nullptr, &logs);
    for (const QueryLog& l : logs) untraced.Merge(l);
    Tracer tracer;
    db->SetCollectStats(true);
    LayerProbe probe(db.get(), &tracer, &layers);
    layers.cache_before = db->cache_stats();
    open_loop(args.seconds / 2, &probe, &logs);
    layers.cache_after = db->cache_stats();
    for (const QueryLog& l : logs) traced.Merge(l);
    layers.queries = traced.attempted;
    layers.untraced_p50_ms = Percentile(untraced.latency_ms, 0.5);
    layers.traced_p50_ms = Percentile(traced.latency_ms, 0.5);
    layers.lag_ms = traced.lag_ms;
    for (double ms : e.writes.batch_ms) layers.append_us.push_back(ms * 1e3);
    layers.ingest = db->ingest_stats();
    layers.compaction = db->compaction_stats();
    std::vector<std::shared_ptr<const etsqp::storage::Page>> pages;
    for (size_t s = 0; s < 32; ++s) {
      auto p = SeriesPages(db.get(), fleet.names[s], 8);
      pages.insert(pages.end(), p.begin(), p.end());
    }
    // Two series on different clocks (groups of 19 share one).
    ProbeKernels(pages, SeriesPages(db.get(), fleet.names[0], 64),
                 SeriesPages(db.get(), fleet.names[19], 64), &layers);
    untraced.Merge(traced);
    report->attempted = untraced.attempted;
    report->failed = untraced.failed;
    EmitLayers(layers, report);
    tracer.Write(TracePath(args));
  }

  phase.emplace(report, "check");
  // Correctness gate: every result against the scalar single-shard oracle.
  if (!CheckFleetResults(args.seed, kSeries, results, report).ok()) return 1;
  phase.reset();
  report->Record("serve_rate", args.serve_rate, "1/s");
  report->notes["engine"] =
      "4 shards, threads=1, cache 4 MiB, tenant max_concurrent=1, 2 open-loop "
      "clients";
  return 0;
}

}  // namespace perfbench
