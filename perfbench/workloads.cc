#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "exec/column_decoder.h"
#include "exec/pipe_builder.h"
#include "simd/merge_simd.h"
#include "sql/planner.h"
#include "storage/page_builder.h"

namespace perfbench {

namespace exec = etsqp::exec;
namespace storage = etsqp::storage;
using PagePtr = std::shared_ptr<const storage::Page>;

Status LoadSeries(Database* db, const std::string& name, const int64_t* times,
                  const int64_t* values, size_t n, size_t batch,
                  WriteLog* log, uint32_t page_size) {
  Status st =
      TimedSetup(log, [&] { return db->CreateTimeseries(name, page_size); });
  if (!st.ok()) return st;
  for (size_t off = 0; off < n; off += batch) {
    size_t len = std::min(batch, n - off);
    uint64_t t0 = NowNs();
    st = db->InsertBatch(name, times + off, values + off, len);
    uint64_t dt = NowNs() - t0;
    log->write_ns += dt;
    log->setup_ns += dt;
    log->batch_ms.push_back(NsToMs(dt));
    if (!st.ok()) {
      ++log->batches_failed;
      return st;
    }
    log->points += len;
  }
  return Status::Ok();
}

Status TimedFlush(Database* db, WriteLog* log) {
  const uint64_t t0 = NowNs();
  Status st = db->Flush();
  const uint64_t dt = NowNs() - t0;
  log->write_ns += dt;
  log->setup_ns += dt;
  return st;
}

void BookSetup(const WriteLog& log, bool writer, EndToEnd* e) {
  e->setup_s.push_back(static_cast<double>(log.setup_ns) / 1e9);
  if (!writer) return;
  e->writes.batch_ms.insert(e->writes.batch_ms.end(), log.batch_ms.begin(),
                            log.batch_ms.end());
  e->writes.points += log.points;
  e->writer_wall_s += static_cast<double>(log.write_ns) / 1e9;
}

void QueryLog::Add(const Result<QueryResult>& r, bool aggregate,
                   uint64_t latency_ns, uint64_t service_ns, uint64_t lag_ns,
                   double slo_ms) {
  ++attempted;
  lag_ms.push_back(NsToMs(lag_ns));
  if (!r.ok()) {
    ++failed;
    ++slo_miss;
    return;
  }
  const ExecStats& s = r.value().stats;
  double ms = NsToMs(latency_ns);
  latency_ms.push_back(ms);
  (aggregate ? agg_ms : merge_ms).push_back(ms);
  if (ms > slo_ms) ++slo_miss;
  query_ns += service_ns;
  // A cache hit loads no pages: its stats are the cached run's.
  if (s.cache_hits > 0) {
    ++cache_hits;
  } else {
    tuples_in_pages += s.tuples_in_pages;
  }
}

void QueryLog::AddUnsent() {
  ++attempted;
  ++failed;
  ++slo_miss;
}

void QueryLog::Merge(const QueryLog& o) {
  auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  cat(&latency_ms, o.latency_ms);
  cat(&agg_ms, o.agg_ms);
  cat(&merge_ms, o.merge_ms);
  cat(&lag_ms, o.lag_ms);
  tuples_in_pages += o.tuples_in_pages;
  query_ns += o.query_ns;
  attempted += o.attempted;
  failed += o.failed;
  slo_miss += o.slo_miss;
  cache_hits += o.cache_hits;
}

void EmitEndToEnd(const Args& args, const EndToEnd& e, Report* r) {
  const QueryLog& q = e.queries;
  auto n = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  // Gated (BENCHMARK.json end_to_end): reported by every workload, never 0.
  r->Metric("setup_s", Median(e.setup_s), "s", n(e.setup_s));
  r->Metric("peak_rss_mb", PeakRssMb(), "MiB");
  r->Metric("query_p50_ms", Percentile(q.latency_ms, 0.5), "ms",
            n(q.latency_ms));
  r->Metric("bytes_per_point", e.bytes_per_point, "B");

  // Record only: too unsteady across runs on a shared VM to gate, 0 on
  // some runs, or meaningful on some workloads only (README.md).
  r->Record("agg_p50_ms", Percentile(q.agg_ms, 0.5), "ms", n(q.agg_ms));
  r->Record("tuples_per_s",
            ratio(static_cast<double>(q.tuples_in_pages),
                  static_cast<double>(q.query_ns) / 1e9),
            "tuples/s");
  r->Record("query_p90_ms", Percentile(q.latency_ms, 0.9), "ms",
            n(q.latency_ms));
  r->Record("query_p99_ms", Percentile(q.latency_ms, 0.99), "ms",
            n(q.latency_ms));
  r->Record("query_max_ms", Percentile(q.latency_ms, 1.0), "ms",
            n(q.latency_ms));
  if (!q.merge_ms.empty()) {
    r->Record("merge_p50_ms", Percentile(q.merge_ms, 0.5), "ms",
              n(q.merge_ms));
  }
  r->Record("ingest_points_per_s",
            ratio(static_cast<double>(e.writes.points), e.writer_wall_s),
            "points/s");
  r->Record("ingest_batch_p99_ms", Percentile(e.writes.batch_ms, 0.99), "ms",
            n(e.writes.batch_ms));
  r->Record("failed_ratio", ratio(q.failed, q.attempted), "1",
            static_cast<int64_t>(q.attempted));
  r->Record("slo_miss_ratio", ratio(q.slo_miss, q.attempted), "1",
            static_cast<int64_t>(q.attempted));
  r->Record("slo_limit_ms", args.slo_ms, "ms");
  r->Record("loadgen_lag_p50_ms", Percentile(q.lag_ms, 0.5), "ms",
            n(q.lag_ms));
  r->Record("loadgen_lag_p99_ms", Percentile(q.lag_ms, 0.99), "ms",
            n(q.lag_ms));
  r->Record("cache_hit_ratio", ratio(q.cache_hits, q.attempted), "1",
            static_cast<int64_t>(q.attempted));
  r->Record("writer_points", static_cast<double>(e.writes.points), "count");
}

void EmitLayers(const Layers& l, Report* r) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  auto n = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  const ExecStats& x = l.exec;
  const double tuples = static_cast<double>(x.tuples_in_pages);
  auto stage_ns = [&](etsqp::metrics::Stage s) {
    return ratio(static_cast<double>(x.stages[s].nanos), tuples);
  };
  const etsqp::metrics::CompactionStats& c = l.compaction;
  const double appended = static_cast<double>(l.ingest.points_appended);
  uint64_t hits = l.cache_after.hits - l.cache_before.hits;
  uint64_t misses = l.cache_after.misses - l.cache_before.misses;
  double predicted = 0, measured = 0, jobs = 0, mispredicted = 0;
  for (const auto& [cls, d] : x.scheduler) {
    predicted += d.predicted_nanos;
    measured += static_cast<double>(d.measured_nanos);
    jobs += static_cast<double>(d.jobs);
    mispredicted += static_cast<double>(d.mispredictions);
  }

  // Result line (BENCHMARK.json per_layer): counts and ratios, and the
  // timings every workload measures.
  r->Metric("sql.plan_us_p50", Percentile(l.plan_us, 0.5), "us", n(l.plan_us));
  r->Metric("db.query_self_us_p50", Percentile(l.query_self_us, 0.5), "us",
            n(l.query_self_us));
  r->Metric("db.cache_hit_ratio", ratio(hits, hits + misses), "1");
  r->Metric("db.cache_evictions_per_query",
            ratio(l.cache_after.evictions - l.cache_before.evictions,
                  static_cast<double>(l.queries)),
            "count");
  r->Metric("storage.append_us_p99", Percentile(l.append_us, 0.99), "us",
            n(l.append_us));
  r->Metric("storage.wal_bytes_per_point", ratio(l.ingest.wal_bytes, appended),
            "B");
  r->Metric("storage.wal_fsyncs", static_cast<double>(l.ingest.wal_fsyncs),
            "count");
  r->Metric("storage.seal_ns_per_point", ratio(l.ingest.seal_nanos, appended),
            "ns");
  r->Metric("storage.compaction_bytes_out_per_in",
            ratio(c.bytes_out, c.bytes_in), "1");
  r->Metric("storage.compaction_aborted_ratio",
            ratio(c.installs_aborted, c.series_compacted + c.installs_aborted),
            "1");
  r->Metric("storage.pool_hit_ratio",
            ratio(l.pool_hits, l.pool_hits + l.pool_loads), "1");
  r->Metric("storage.pages_loaded_per_query",
            ratio(l.pool_loads, l.pool_queries), "count");
  r->Metric("exec.run_us_p50", Percentile(l.run_us, 0.5), "us", n(l.run_us));
  r->Metric("exec.pages_pruned_ratio", ratio(x.pages_pruned, x.pages_total),
            "1");
  r->Metric("exec.tuples_scanned_per_result",
            ratio(x.tuples_scanned, x.result_tuples), "count");
  r->Metric("exec.stage.unpack_ns_per_tuple",
            stage_ns(etsqp::metrics::Stage::kUnpack), "ns");
  r->Metric("exec.stage.filter_ns_per_tuple",
            stage_ns(etsqp::metrics::Stage::kFilter), "ns");
  r->Metric("exec.stage.aggregate_ns_per_tuple",
            stage_ns(etsqp::metrics::Stage::kAggregate), "ns");
  r->Metric("exec.stage.merge_ns_per_tuple",
            stage_ns(etsqp::metrics::Stage::kMerge), "ns");
  r->Metric("exec.sched.measured_over_predicted", ratio(measured, predicted),
            "1");
  r->Metric("exec.sched.mispredict_ratio", ratio(mispredicted, jobs), "1");
  r->Metric("exec.pool.steals_per_query",
            ratio(x.pool.steals, static_cast<double>(l.executes)), "count");
  r->Metric("encoding.decode_ns_per_tuple.ts2diff", l.ts2diff_serial_ns, "ns");
  r->Metric("encoding.decode_ns_per_tuple.gorilla", l.gorilla_serial_ns, "ns");
  r->Metric("simd.decode_ns_per_tuple", l.etsqp_ns, "ns");
  r->Metric("simd.speedup_over_serial", ratio(l.ts2diff_serial_ns, l.etsqp_ns),
            "1");
  r->Metric("simd.merge_ns_per_tuple", l.merge_ns, "ns");
  r->Metric("loadgen.lag_p99_ms", Percentile(l.lag_ms, 0.99), "ms",
            n(l.lag_ms));
  r->Metric("trace.overhead_ratio",
            l.untraced_p50_ms > 0 ? l.traced_p50_ms / l.untraced_p50_ms - 1 : 0,
            "1");

  // Record only: timings of layers some workloads never reach (they read
  // 0 there: snapshot/resolve/build on the file path, compaction off
  // `ingest`, pool parking with inline engines, page fetches off `cold`,
  // admission waits off `serve`, delta passes under fused kernels).
  r->Record("db.admission_wait_us_p99", Percentile(l.admission_us, 0.99), "us",
            n(l.admission_us));
  r->Record("storage.snapshot_us_p50", Percentile(l.snapshot_us, 0.5), "us",
            n(l.snapshot_us));
  r->Record("storage.snapshot_us_p99", Percentile(l.snapshot_us, 0.99), "us",
            n(l.snapshot_us));
  r->Record("storage.compaction_ms", ratio(c.nanos / 1e6, c.runs), "ms");
  r->Record("exec.resolve_us_p50", Percentile(l.resolve_us, 0.5), "us",
            n(l.resolve_us));
  r->Record("exec.build_us_p50", Percentile(l.build_us, 0.5), "us",
            n(l.build_us));
  r->Record("exec.stage.page_fetch_ns_per_tuple",
            stage_ns(etsqp::metrics::Stage::kPageFetch), "ns");
  r->Record("exec.stage.delta_ns_per_tuple",
            stage_ns(etsqp::metrics::Stage::kDelta), "ns");
  r->Record("exec.pool.park_ms",
            ratio(x.pool.park_nanos / 1e6, static_cast<double>(l.executes)),
            "ms");
  r->Record("traced.query_p50_ms", l.traced_p50_ms, "ms");
  r->Record("untraced.query_p50_ms", l.untraced_p50_ms, "ms");
  r->Record("db.query_us_p50", Percentile(l.query_us, 0.5), "us",
            n(l.query_us));
  r->Record("exec.execute_us_p50", Percentile(l.execute_us, 0.5), "us",
            n(l.execute_us));
  r->Record("exec.tuples_in_pages", tuples, "count");
  r->Record("exec.pages_total", static_cast<double>(x.pages_total), "count");
  r->Record("exec.pages_pruned", static_cast<double>(x.pages_pruned), "count");
}

Result<QueryResult> LayerProbe::Request(const std::string& tenant,
                                        const std::string& sql,
                                        uint64_t query_id, uint64_t* query_ns,
                                        storage::FileBackedStore* file) {
  Tracer& tr = *tracer_;
  Layers& l = *layers_;
  auto span_us = [&tr](int s) {
    return NsToUs(tr.spans()[s].end - tr.spans()[s].start);
  };
  const int root = tr.Begin("request", -1, query_id);
  Result<QueryResult> out = Status::Internal("not run");
  double query_us = 0;
  auto run_query = [&] {
    int s = tr.Begin("db.query", root, query_id);
    out = db_->Query(tenant, sql);
    tr.End(s);
    query_us = span_us(s);
    *query_ns = tr.spans()[s].end - tr.spans()[s].start;
  };
  if (query_id % 2 == 1) run_query();

  int s = tr.Begin("sql.plan", root, query_id);
  Result<exec::LogicalPlan> plan = etsqp::sql::PlanQuery(sql);
  tr.End(s);
  const double plan_us = span_us(s);
  l.plan_us.push_back(plan_us);

  double inner_us = 0;  // resolve + build + run: what Query executes
  if (plan.ok()) {
    const exec::LogicalPlan& p = plan.value();
    const exec::Engine& engine = db_->engine();
    Result<QueryResult> run = Status::Internal("not run");
    if (file == nullptr) {
      Database* db = db_;
      exec::SnapshotResolver resolve =
          [db](const std::string& name) -> Result<storage::SeriesSnapshot> {
        return db->shard_store(db->ShardOf(name))->GetSnapshot(name);
      };
      s = tr.Begin("storage.snapshot", root, query_id);
      Result<storage::SeriesSnapshot> snap = resolve(p.series);
      tr.End(s);
      l.snapshot_us.push_back(span_us(s));

      s = tr.Begin("exec.resolve", root, query_id);
      auto inputs = exec::ResolveInputs(p, resolve);
      tr.End(s);
      const double resolve_us = span_us(s);

      double build_us = 0;
      if (inputs.ok()) {
        s = tr.Begin("exec.build", root, query_id);
        auto spec = exec::BuildPipeline(p, inputs.value(), engine.options());
        tr.End(s);
        build_us = span_us(s);
      }

      s = tr.Begin("exec.execute", root, query_id);
      run = engine.Execute(p, exec::StoreHandle(resolve));
      tr.End(s);
      inner_us = span_us(s);
      l.resolve_us.push_back(resolve_us);
      l.build_us.push_back(build_us);
      l.run_us.push_back(inner_us - resolve_us - build_us);
    } else {
      s = tr.Begin("exec.execute", root, query_id);
      run = engine.Execute(p, file);
      tr.End(s);
      inner_us = span_us(s);
      l.run_us.push_back(inner_us);
    }
    l.execute_us.push_back(inner_us);
    if (run.ok()) {
      l.exec.Merge(run.value().stats);
      ++l.executes;
    }
  }

  if (query_id % 2 == 0) run_query();
  tr.End(root);
  l.query_us.push_back(query_us);
  if (out.ok()) {
    const ExecStats& qs = out.value().stats;
    const bool hit = qs.cache_hits > 0;
    l.query_self_us.push_back(query_us - plan_us - (hit ? 0 : inner_us));
    l.admission_us.push_back(NsToUs(qs.admission_wait_nanos));
  }
  return out;
}

namespace {

/// Median per-round nanoseconds of `round` (one pass over the probe
/// inputs), repeated for at least `budget_ns` and at least 5 rounds.
template <typename F>
double MedianRoundNs(uint64_t budget_ns, F&& round) {
  std::vector<double> ns;
  uint64_t start = NowNs();
  while (ns.size() < 5 || NowNs() - start < budget_ns) {
    uint64_t t0 = NowNs();
    round();
    ns.push_back(static_cast<double>(NowNs() - t0));
    if (ns.size() >= 1000) break;
  }
  return Median(ns);
}

/// Concatenated (time, value) tuples of `pages`.
void DecodePages(const std::vector<PagePtr>& pages, std::vector<int64_t>* t,
                 std::vector<int64_t>* v) {
  exec::DecodedColumn col;
  for (const PagePtr& p : pages) {
    const storage::PageHeader& h = p->header;
    if (etsqp::enc::IsFloatEncoding(h.value_encoding)) continue;
    size_t at = t->size();
    t->resize(at + h.count);
    v->resize(at + h.count);
    if (!exec::DecodeColumn(p->time_data.data(), h.time_bytes,
                            h.time_encoding, h.count,
                            exec::DecodeStrategy::kSerial, 0, &col)
             .ok()) {
      t->resize(at);
      v->resize(at);
      continue;
    }
    col.Materialize(t->data() + at);
    if (!exec::DecodeColumn(p->value_data.data(), h.value_bytes,
                            h.value_encoding, h.count,
                            exec::DecodeStrategy::kSerial, 0, &col)
             .ok()) {
      t->resize(at);
      v->resize(at);
      continue;
    }
    col.Materialize(v->data() + at);
  }
}

/// One decode pass over the value columns of `pages`. The pages are the
/// workload's own, already served by queries: a failure is a library bug.
void DecodeValues(const std::vector<const storage::Page*>& pages,
                  exec::DecodeStrategy strategy) {
  exec::DecodedColumn col;
  for (const storage::Page* p : pages) {
    const storage::PageHeader& h = p->header;
    Status st = exec::DecodeColumn(p->value_data.data(), h.value_bytes,
                                   h.value_encoding, h.count, strategy, 0, &col);
    if (!st.ok()) {
      std::fprintf(stderr, "kernel probe: decode failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
  }
}

}  // namespace

void ProbeKernels(const std::vector<PagePtr>& pages,
                  const std::vector<PagePtr>& left,
                  const std::vector<PagePtr>& right, Layers* l) {
  constexpr uint64_t kBudget = 40'000'000;  // 40 ms per kernel
  std::vector<PagePtr> ts2diff;
  std::vector<const storage::Page*> ts2diff_pages;
  for (const PagePtr& p : pages) {
    if (p->header.value_encoding == etsqp::enc::ColumnEncoding::kTs2Diff) {
      ts2diff.push_back(p);
      ts2diff_pages.push_back(p.get());
    }
  }
  auto ns_per_tuple = [&](const std::vector<const storage::Page*>& set,
                          exec::DecodeStrategy strategy) {
    uint64_t tuples = 0;
    for (const storage::Page* p : set) tuples += p->header.count;
    if (tuples == 0) return 0.0;
    return MedianRoundNs(kBudget, [&] { DecodeValues(set, strategy); }) /
           static_cast<double>(tuples);
  };
  l->ts2diff_serial_ns = ns_per_tuple(ts2diff_pages, exec::DecodeStrategy::kSerial);
  l->etsqp_ns = ns_per_tuple(ts2diff_pages, exec::DecodeStrategy::kEtsqp);

  // The same points re-encoded with Gorilla values.
  std::vector<int64_t> t, v;
  DecodePages(ts2diff, &t, &v);
  std::vector<storage::Page> gorilla;
  storage::PageOptions opts;
  opts.value_encoding = etsqp::enc::ColumnEncoding::kGorilla;
  for (size_t at = 0; at < t.size(); at += 4096) {
    Result<storage::Page> page = storage::BuildPage(
        t.data() + at, v.data() + at, std::min<size_t>(4096, t.size() - at),
        opts);
    if (page.ok()) gorilla.push_back(std::move(page).value());
  }
  std::vector<const storage::Page*> gorilla_pages;
  for (const storage::Page& p : gorilla) gorilla_pages.push_back(&p);
  l->gorilla_serial_ns = ns_per_tuple(gorilla_pages, exec::DecodeStrategy::kSerial);

  std::vector<int64_t> lt, lv, rt, rv;
  DecodePages(left, &lt, &lv);
  DecodePages(right, &rt, &rv);
  if (!lt.empty() && !rt.empty()) {
    const auto isa = etsqp::simd::BestMergeIsa();
    std::vector<int64_t> out_t(lt.size() + rt.size()),
        out_v(lt.size() + rt.size());
    std::vector<uint32_t> il(std::min(lt.size(), rt.size())),
        ir(std::min(lt.size(), rt.size()));
    double union_ns = MedianRoundNs(kBudget, [&] {
      etsqp::simd::MergeUnionInt64(lt.data(), lv.data(), lt.size(), rt.data(),
                                   rv.data(), rt.size(), out_t.data(),
                                   out_v.data(), isa);
    });
    double join_ns = MedianRoundNs(kBudget, [&] {
      etsqp::simd::IntersectIndicesInt64(lt.data(), lt.size(), rt.data(),
                                         rt.size(), il.data(), ir.data(), isa);
    });
    l->merge_ns = (union_ns + join_ns) / 2 /
                  static_cast<double>(lt.size() + rt.size());
  }
}

std::vector<PagePtr> SeriesPages(Database* db, const std::string& series,
                                 size_t max_pages) {
  Result<storage::SeriesSnapshot> snap =
      db->shard_store(db->ShardOf(series))->GetSnapshot(series);
  if (!snap.ok()) return {};
  std::vector<PagePtr> pages = snap.value().pages;
  if (pages.size() > max_pages) pages.resize(max_pages);
  return pages;
}

double BytesPerPoint(Database* db, const std::vector<std::string>& series) {
  double bytes = 0, points = 0;
  for (const std::string& name : series) {
    const storage::SeriesStore& store = *db->shard_store(db->ShardOf(name));
    bytes += static_cast<double>(store.EncodedBytes(name));
    Result<storage::SeriesSnapshot> snap = store.GetSnapshot(name);
    if (snap.ok()) {
      for (const PagePtr& p : snap.value().pages) points += p->header.count;
    }
  }
  return points > 0 ? bytes / points : 0;
}

std::string RunTempDir(const Args& args) {
  std::string dir = args.out_dir + "/tmp-" + args.workload + "-" +
                    std::to_string(getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

uint64_t HashWords(uint64_t h, const int64_t* words, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t w = static_cast<uint64_t>(words[i]);
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((w >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  return h;
}

size_t CheckAgainstOracle(const Database& oracle,
                          const std::vector<std::vector<Checked>>& results,
                          int threads, Report* report) {
  std::unordered_map<std::string, size_t> index;
  std::vector<const std::string*> distinct;
  for (const auto& per_client : results) {
    for (const Checked& c : per_client) {
      if (index.emplace(c.sql, distinct.size()).second) {
        distinct.push_back(&c.sql);
      }
    }
  }
  std::vector<Result<QueryResult>> answers(distinct.size(),
                                           Status::Internal("not asked"));
  std::vector<std::thread> pool;
  for (int j = 0; j < threads; ++j) {
    pool.emplace_back([&, j] {
      for (size_t i = j; i < distinct.size(); i += threads) {
        answers[i] = oracle.Query(*distinct[i]);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const auto& per_client : results) {
    for (const Checked& c : per_client) {
      const Result<QueryResult>& want = answers[index[c.sql]];
      if (!want.ok()) {
        report->Mismatch("oracle failed on " + c.sql + ": " +
                         want.status().ToString());
      } else if (c.digest != ResultDigest(want.value())) {
        report->Mismatch(c.sql + ": result differs from the oracle's (" +
                         std::to_string(c.rows) + " rows, oracle " +
                         std::to_string(want.value().num_rows()) + ")");
      }
    }
  }
  return distinct.size();
}

Database::Options OracleOptions() {
  Database::Options o;
  o.mode = Database::Mode::kScalar;
  o.threads = 1;
  o.shards = 1;
  o.cache_budget_bytes = 0;
  return o;
}

}  // namespace perfbench
