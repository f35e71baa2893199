// `cold`: the fleet of `serve` saved with Database::Save and attached with
// OpenFile under a buffer-pool budget well below the file size, queried by
// uniform dashboard aggregates in a closed loop. The only path through the
// TsFile reader and the FileBackedStore LRU pool.
#include <filesystem>
#include <optional>
#include <thread>

#include "db/shard.h"
#include "fleet.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kSeries = 2000;
constexpr int kShards = 4;
constexpr int kClients = 2;
constexpr int kEngineThreads = 1;  // as in serve: queries run inline
constexpr size_t kBudgetDivisor = 8;  // pool budget = shard file size / 8
constexpr int kTraceEvery = 4;        // traced run: every 4th request of client 0

}  // namespace

int RunCold(const Args& args, Report* report) {
  std::optional<Phase> phase;
  const std::string tmp = RunTempDir(args);
  const std::string path = tmp + "/fleet.tsfile";
  Database::Options options;
  options.mode = Database::Mode::kSimd;
  options.threads = kEngineThreads;
  options.shards = kShards;
  options.cache_budget_bytes = 0;  // the file path bypasses the result cache

  phase.emplace(report, "setup");
  Fleet fleet;
  EndToEnd e;
  std::unique_ptr<Database> db;
  size_t budget = 0;
  uint64_t file_bytes = 0;
  etsqp::metrics::IngestStats source_ingest;  // the loader's seal counters
  for (int k = 0; k < kSetups; ++k) {
    db.reset();
    WriteLog log;
    Status st;
    {
      // Build the fleet in memory and save it; the cold database attaches
      // the files and never holds the points in memory.
      Database source(options);
      st = GenerateFleet(
          args.seed, kSeries, k == 0 ? &fleet : nullptr,
          [&](const std::string& name, const int64_t* t, const int64_t* v,
              size_t n) { return LoadSeries(&source, name, t, v, n, 4096, &log); });
      if (st.ok()) st = TimedFlush(&source, &log);
      if (k == 0 && st.ok()) e.bytes_per_point = BytesPerPoint(&source, fleet.names);
      source_ingest = source.ingest_stats();
      if (st.ok()) st = TimedSetup(&log, [&] { return source.Save(path); });
    }
    if (st.ok() && k == 0) {
      for (int s = 0; s < kShards; ++s) {
        file_bytes += std::filesystem::file_size(
            etsqp::db::Shard::ArtifactPath(path, s, kShards));
      }
      budget = file_bytes / kShards / kBudgetDivisor;
    }
    auto fresh = std::make_unique<Database>(options);
    if (st.ok()) {
      st = TimedSetup(&log, [&] { return fresh->OpenFile(path, budget); });
    }
    if (!st.ok()) {
      std::fprintf(stderr, "cold set-up: %s\n", st.ToString().c_str());
      RemoveTree(tmp);
      return 1;
    }
    BookSetup(log, true, &e);
    db = std::move(fresh);
  }

  // Uniform series, window and shape per client.
  Rng rng(args.seed ^ 0xc01d);
  std::vector<Rng> streams;
  for (int j = 0; j < kClients; ++j) streams.emplace_back(rng.Next());
  auto next_query = [&](int j, size_t* series) {
    Rng& r = streams[j];
    *series = r.Below(kSeries);
    size_t w = r.Below(Fleet::kWindows);
    return FleetSql(fleet, *series, w, static_cast<int>(r.Below(3)));
  };
  std::vector<std::vector<Checked>> results(kClients);
  std::vector<uint64_t> shard0_queries(kClients);

  auto closed_loop = [&](double seconds, LayerProbe* probe,
                         std::vector<etsqp::storage::FileBackedStore>* files,
                         std::vector<QueryLog>* logs) {
    logs->assign(kClients, QueryLog());
    std::fill(shard0_queries.begin(), shard0_queries.end(), 0);
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> clients;
    for (int j = 0; j < kClients; ++j) {
      clients.emplace_back([&, j] {
        QueryLog& log = (*logs)[j];
        uint64_t ready = NowNs();
        for (uint64_t i = 0; NowNs() < deadline; ++i) {
          size_t series = 0;
          std::string sql = next_query(j, &series);
          const int shard = db->ShardOf(fleet.names[series]);
          if (shard == 0) ++shard0_queries[j];
          const uint64_t t0 = NowNs();
          const bool traced = probe != nullptr && j == 0 && i % kTraceEvery == 0;
          uint64_t query_ns = 0;
          Result<QueryResult> r =
              traced ? probe->Request("default", sql, i / kTraceEvery,
                                      &query_ns, &(*files)[shard])
                     : db->Query(sql);
          if (!traced) query_ns = NowNs() - t0;
          log.Add(r, true, query_ns, query_ns, t0 - ready, args.slo_ms);
          if (r.ok()) {
            results[j].push_back({std::move(sql), ResultDigest(r.value()),
                                  r.value().num_rows()});
          }
          ready = NowNs();
        }
      });
    }
    for (std::thread& t : clients) t.join();
  };

  phase.emplace(report, "measure");
  // Warm-up: the pool holds a steady-state page mix before timing.
  std::vector<QueryLog> logs;
  closed_loop(std::min(1.0, args.seconds / 5), nullptr, nullptr, &logs);

  if (!args.trace) {
    closed_loop(args.seconds, nullptr, nullptr, &logs);
    for (const QueryLog& l : logs) e.queries.Merge(l);
    report->attempted = e.queries.attempted;
    report->failed = e.queries.failed;
    EmitEndToEnd(args, e, report);
  } else {
    QueryLog untraced, traced;
    closed_loop(args.seconds / 2, nullptr, nullptr, &logs);
    for (const QueryLog& l : logs) untraced.Merge(l);
    // The traced path runs the engine on its own store per shard file
    // (same budget), so the database's pools see only its own queries.
    std::vector<etsqp::storage::FileBackedStore> files(kShards);
    for (int s = 0; s < kShards; ++s) {
      etsqp::storage::FileBackedStore::Options fo;
      fo.memory_budget_bytes = budget;
      if (!files[s].Open(etsqp::db::Shard::ArtifactPath(path, s, kShards), fo).ok()) {
        RemoveTree(tmp);
        return 1;
      }
    }
    Tracer tracer;
    Layers layers;
    db->SetCollectStats(true);
    LayerProbe probe(db.get(), &tracer, &layers);
    const auto pool_before = db->file_store()->stats();
    closed_loop(args.seconds / 2, &probe, &files, &logs);
    const auto pool_after = db->file_store()->stats();
    for (const QueryLog& l : logs) traced.Merge(l);
    layers.pool_hits = pool_after.pool_hits - pool_before.pool_hits;
    layers.pool_loads = pool_after.pages_loaded - pool_before.pages_loaded;
    for (uint64_t n : shard0_queries) layers.pool_queries += n;
    layers.queries = traced.attempted;
    layers.cache_before = layers.cache_after = db->cache_stats();
    layers.untraced_p50_ms = Percentile(untraced.latency_ms, 0.5);
    layers.traced_p50_ms = Percentile(traced.latency_ms, 0.5);
    layers.lag_ms = traced.lag_ms;
    for (double ms : e.writes.batch_ms) layers.append_us.push_back(ms * 1e3);
    layers.ingest = source_ingest;
    layers.compaction = db->compaction_stats();
    // Kernel probes on pages read back from the files.
    auto file_pages = [&](size_t s, size_t max_pages) {
      std::vector<std::shared_ptr<const etsqp::storage::Page>> out;
      const std::string& name = fleet.names[s];
      auto& store = files[db->ShardOf(name)];
      auto index = store.GetSeries(name);
      if (!index.ok()) return out;
      for (size_t p = 0; p < index.value()->pages.size() && p < max_pages; ++p) {
        auto page = store.LoadPage(name, p);
        if (page.ok()) out.push_back(page.value());
      }
      return out;
    };
    std::vector<std::shared_ptr<const etsqp::storage::Page>> pages;
    for (size_t s = 0; s < 32; ++s) {
      auto p = file_pages(s, 8);
      pages.insert(pages.end(), p.begin(), p.end());
    }
    ProbeKernels(pages, file_pages(0, 64), file_pages(19, 64), &layers);
    untraced.Merge(traced);
    report->attempted = untraced.attempted;
    report->failed = untraced.failed;
    EmitLayers(layers, report);
    tracer.Write(TracePath(args));
  }

  phase.emplace(report, "check");
  // Correctness gate: every result against the scalar single-shard oracle.
  db.reset();
  Status st = CheckFleetResults(args.seed, kSeries, results, report);
  phase.reset();
  RemoveTree(tmp);
  if (!st.ok()) return 1;
  report->Record("file_bytes", static_cast<double>(file_bytes), "B");
  report->Record("pool_budget_bytes_per_shard", static_cast<double>(budget),
                 "B");
  report->notes["engine"] =
      "4 shards attached with OpenFile, threads=1, pool budget = shard file / "
      "8, 2 closed-loop clients";
  return 0;
}

}  // namespace perfbench
