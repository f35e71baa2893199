// `ingest`: writes beside reads. One closed-loop writer appends 32-point
// batches to 64 series (int and float) through the WAL (kBatch fsync,
// background sealing, auto-triggered compaction); a share of batches on
// out-of-order series arrive late or rewrite earlier points, and DeleteRange
// / SetTtl calls land periodically. One closed-loop reader aggregates recent
// windows, which hit the tail, freshly sealed pages and masked pages, with
// the cache on. Reader results and the final state are checked against
// ground truth recomputed from the generator.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kStrictInt = 40;    // in-order int series; deletes land here
constexpr int kFloat = 8;         // in-order float series; TTL lands here
constexpr int kOoo = 16;          // allow_out_of_order int series
constexpr int kSeries = kStrictInt + kFloat + kOoo;
constexpr size_t kBatch = 32;
constexpr size_t kPrefill = 16384;  // points per series at set-up
constexpr size_t kWindow = 256;     // reader window, points
constexpr size_t kReach = 2048;     // reader looks this far behind the fence
constexpr uint64_t kDeleteEvery = 4096;  // batches
constexpr uint64_t kTtlEvery = 8192;     // batches
constexpr int kEngineThreads = 2;
constexpr size_t kCacheBytes = 4 << 20;

enum class Kind { kStrictInt, kFloat, kOoo };

/// One period of a workload::MakeClimate series, repeated with a time
/// offset: the i-th point of a series is a pure function of (seed, i).
struct Pattern {
  std::vector<int64_t> t, v;
  int64_t period = 0;

  int64_t Time(uint64_t i) const {
    return t[i % t.size()] + static_cast<int64_t>(i / t.size()) * period;
  }
  int64_t Value(uint64_t i) const { return v[i % v.size()]; }
  double FValue(uint64_t i) const {
    return static_cast<double>(v[i % v.size()]) / 100.0;
  }
};

struct Rewrite {
  uint64_t first = 0;  // batch start index
  int64_t delta = 0;   // added to every value of the batch
};

/// Writer-side state of one series and the ground truth it implies.
struct SeriesState {
  std::string name;
  Kind kind = Kind::kStrictInt;
  Pattern pattern;
  uint64_t next = 0;                 // points issued in order so far
  std::atomic<uint64_t> acked{0};    // published for the reader
  std::vector<uint64_t> held;        // late batches not yet sent (OOO)
  std::vector<Rewrite> rewrites;     // LWW rewrites, in send order
  std::mutex mu;                     // guards deletes
  std::vector<std::pair<int64_t, int64_t>> deletes;
  // Deletes listed before their DeleteRange call starts / after it
  // returned: a query sees a state between the two.
  std::atomic<size_t> deletes_started{0};
  std::atomic<size_t> deletes_done{0};
  int64_t ttl = 0;                   // float series: current TTL (ns)
};

std::vector<std::unique_ptr<SeriesState>> MakeSeries(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<SeriesState>> out;
  for (int s = 0; s < kSeries; s += 4) {
    etsqp::workload::Dataset ds = etsqp::workload::MakeClimate(8192, rng.Next());
    for (int a = 0; a < 4; ++a) {
      auto st = std::make_unique<SeriesState>();
      const int k = s + a;
      st->kind = k < kStrictInt            ? Kind::kStrictInt
                 : k < kStrictInt + kFloat ? Kind::kFloat
                                           : Kind::kOoo;
      char name[32];
      std::snprintf(name, sizeof(name), "ing.%c%02d",
                    st->kind == Kind::kStrictInt ? 'i'
                    : st->kind == Kind::kFloat   ? 'f'
                                                 : 'o',
                    k);
      st->name = name;
      const auto& series = ds.series[a];
      st->pattern.t = series.times;
      st->pattern.v = series.values;
      st->pattern.period = series.times.back() - series.times.front() +
                           (series.times[1] - series.times[0]);
      out.push_back(std::move(st));
    }
  }
  return out;
}

/// Appends points [first, first + n) of `s` (plus `delta` on values);
/// `insert_ns` receives the time inside the InsertBatch call alone.
Status Send(Database* db, SeriesState* s, uint64_t first, size_t n,
            int64_t delta, uint64_t* insert_ns) {
  thread_local std::vector<int64_t> t, v;
  thread_local std::vector<double> f;
  t.resize(n);
  v.resize(n);
  f.resize(n);
  for (size_t i = 0; i < n; ++i) {
    t[i] = s->pattern.Time(first + i);
    v[i] = s->pattern.Value(first + i) + delta;
    f[i] = s->pattern.FValue(first + i);
  }
  const uint64_t t0 = NowNs();
  Status st = s->kind == Kind::kFloat
                  ? db->InsertBatchF64(s->name, t.data(), f.data(), n)
                  : db->InsertBatch(s->name, t.data(), v.data(), n);
  *insert_ns = NowNs() - t0;
  return st;
}

bool Deleted(const std::vector<std::pair<int64_t, int64_t>>& deletes,
             size_t count, int64_t t) {
  for (size_t d = 0; d < count; ++d) {
    if (t >= deletes[d].first && t <= deletes[d].second) return true;
  }
  return false;
}

/// What the reader's aggregate must return over indices [a, b] with the
/// first `ndel` deletes applied.
double ExpectedAggregate(const SeriesState& s, uint64_t a, uint64_t b,
                         const std::vector<std::pair<int64_t, int64_t>>& del,
                         size_t ndel, int shape) {
  double sum = 0, mx = -INFINITY;
  uint64_t count = 0;
  for (uint64_t i = a; i <= b; ++i) {
    if (Deleted(del, ndel, s.pattern.Time(i))) continue;
    double v = s.kind == Kind::kFloat ? s.pattern.FValue(i)
                                      : static_cast<double>(s.pattern.Value(i));
    sum += v;
    mx = std::max(mx, v);
    ++count;
  }
  if (shape == 0) return count > 0 ? sum / static_cast<double>(count) : 0;
  if (shape == 1) return sum;
  return mx;
}

bool Close(double got, double want) {
  return got == want ||
         std::fabs(got - want) <= 1e-9 * std::max(std::fabs(got), std::fabs(want));
}

/// Builds one ingest database: WAL, background sealing and compaction on,
/// every series created and prefilled, the float series' TTL set. Every
/// call is timed into `log`.
Status SetUpIngest(const Database::Options& options, const std::string& wal_dir,
                   std::vector<std::unique_ptr<SeriesState>>* series,
                   std::unique_ptr<Database>* out, WriteLog* log) {
  RemoveTree(wal_dir);
  std::filesystem::create_directories(wal_dir);
  auto db = std::make_unique<Database>(options);
  Status st = TimedSetup(log, [&] {
    Database::IngestConfig ingest;
    ingest.wal_path = wal_dir + "/db.wal";
    ingest.fsync = etsqp::storage::Wal::FsyncPolicy::kBatch;
    ingest.background_seal = true;
    Status s = db->EnableIngest(ingest);
    if (!s.ok()) return s;
    Database::CompactionConfig compaction;
    compaction.auto_trigger_pages = 64;
    return db->EnableCompaction(compaction);
  });
  for (auto& s : *series) {
    if (!st.ok()) return st;
    st = TimedSetup(log, [&] {
      if (s->kind == Kind::kFloat) return db->CreateFloatTimeseries(s->name);
      etsqp::storage::SeriesStore::SeriesOptions so;
      so.allow_out_of_order = s->kind == Kind::kOoo;
      return db->CreateTimeseries(s->name, so);
    });
    if (!st.ok()) return st;
    uint64_t dt = 0;
    st = Send(db.get(), s.get(), 0, kPrefill, 0, &dt);
    log->setup_ns += dt;
    s->next = kPrefill;
    s->acked = kPrefill;
    if (st.ok() && s->kind == Kind::kFloat) {
      // Retention of 400k points' worth; the writer only shrinks it.
      s->ttl = 400'000 * s->pattern.period /
               static_cast<int64_t>(s->pattern.t.size());
      st = TimedSetup(log, [&] { return db->SetTtl(s->name, s->ttl); });
    }
  }
  if (st.ok()) st = TimedFlush(db.get(), log);
  if (st.ok()) *out = std::move(db);
  return st;
}

/// Flushes, then compacts until every late point is reconciled: a series
/// a background pass holds is skipped by Compact(), so passes repeat until
/// the overlap buffers are empty.
Status ReconcileLatePoints(Database* db) {
  Status st = db->Flush();
  for (int pass = 0; st.ok(); ++pass) {
    st = db->Compact();
    if (db->ingest_stats().ooo_pending == 0) return st;
    if (pass == 500) {
      return Status::Internal("late points unreconciled after 500 passes");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return st;
}

/// Compares the final state of `s` with its ground truth: the points
/// sent (held batches never sent are absent), tombstones and the TTL cut
/// applied, the last rewrite of a batch winning. Int series are compared
/// row by row; float series by COUNT/SUM/MIN/MAX (materializing a float
/// series with tombstones is NotSupported). Returns the points checked.
size_t CheckFinalSeries(Database* db, const SeriesState& s, Report* report) {
  std::unordered_map<uint64_t, int64_t> delta;  // batch start -> last rewrite
  for (const Rewrite& rw : s.rewrites) delta[rw.first] = rw.delta;
  const std::unordered_set<uint64_t> held(s.held.begin(), s.held.end());
  const int64_t cut = s.kind == Kind::kFloat
                          ? s.pattern.Time(s.next - 1) - s.ttl
                          : INT64_MIN;
  std::vector<int64_t> want_t;
  std::vector<double> want_v;
  for (uint64_t i = 0; i < s.next; ++i) {
    const uint64_t batch = i - i % kBatch;
    const int64_t t = s.pattern.Time(i);
    if (held.count(batch) || t <= cut ||
        Deleted(s.deletes, s.deletes.size(), t)) {
      continue;
    }
    auto rw = delta.find(batch);
    want_t.push_back(t);
    want_v.push_back(s.kind == Kind::kFloat
                         ? s.pattern.FValue(i)
                         : static_cast<double>(
                               s.pattern.Value(i) +
                               (rw == delta.end() ? 0 : rw->second)));
  }

  if (s.kind == Kind::kFloat) {
    double sum = 0, mn = INFINITY, mx = -INFINITY;
    for (double v : want_v) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    const char* fn[] = {"COUNT", "SUM", "MIN", "MAX"};
    const double want[] = {static_cast<double>(want_v.size()), sum, mn, mx};
    for (int f = 0; f < 4; ++f) {
      Result<QueryResult> r =
          db->Query(std::string("SELECT ") + fn[f] + "(v) FROM " + s.name);
      double got = r.ok() && !r.value().columns.empty() &&
                           !r.value().columns.back().empty()
                       ? r.value().columns.back()[0]
                       : NAN;
      if (!Close(got, want[f])) {
        report->Mismatch("final " + s.name + " " + fn[f] + ": got " +
                         std::to_string(got) + " want " +
                         std::to_string(want[f]));
      }
    }
    return want_v.size();
  }

  Result<QueryResult> r = db->Query("SELECT * FROM " + s.name);
  if (!r.ok()) {
    report->Mismatch("final " + s.name + ": " + r.status().ToString());
    return want_v.size();
  }
  const QueryResult& q = r.value();
  if (q.columns.size() < 2 || q.columns[0].size() != want_t.size()) {
    report->Mismatch("final " + s.name + ": " + std::to_string(q.num_rows()) +
                     " rows, want " + std::to_string(want_t.size()));
    return want_v.size();
  }
  for (size_t i = 0; i < want_t.size(); ++i) {
    if (q.columns[0][i] != static_cast<double>(want_t[i]) ||
        q.columns[1][i] != want_v[i]) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    " row %zu: got (%.0f, %.17g), want (%lld, %.17g)", i,
                    q.columns[0][i], q.columns[1][i],
                    static_cast<long long>(want_t[i]), want_v[i]);
      report->Mismatch("final " + s.name + buf);
      break;
    }
  }
  return want_v.size();
}

}  // namespace

uint64_t IngestInputDigest(uint64_t seed) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& s : MakeSeries(seed)) {
    h = HashWords(h, s->pattern.t.data(), s->pattern.t.size());
    h = HashWords(h, s->pattern.v.data(), s->pattern.v.size());
  }
  return h;
}

int RunIngest(const Args& args, Report* report) {
  std::optional<Phase> phase;
  const std::string tmp = RunTempDir(args);
  Database::Options options;
  options.mode = Database::Mode::kSimd;
  options.threads = kEngineThreads;
  options.shards = 4;
  options.cache_budget_bytes = kCacheBytes;

  phase.emplace(report, "setup");
  EndToEnd e;
  std::unique_ptr<Database> db;
  std::vector<std::unique_ptr<SeriesState>> series;
  for (int k = 0; k < kSetups; ++k) {
    db.reset();
    series = MakeSeries(args.seed);
    WriteLog log;
    Status st = SetUpIngest(options, tmp + "/wal" + std::to_string(k), &series,
                            &db, &log);
    if (!st.ok()) {
      std::fprintf(stderr, "ingest set-up: %s\n", st.ToString().c_str());
      RemoveTree(tmp);
      return 1;
    }
    BookSetup(log, false, &e);
  }
  phase.emplace(report, "measure");
  Rng wrng(args.seed ^ 0x1a6e57);
  WriteLog& wlog = e.writes;
  // Sample buffers sized up front: a reallocation inside the measured
  // window would stall the writer and step the peak RSS.
  wlog.batch_ms.reserve(1 << 23);
  e.queries.latency_ms.reserve(1 << 22);
  e.queries.agg_ms.reserve(1 << 22);
  e.queries.lag_ms.reserve(1 << 22);
  uint64_t batches = 0;
  uint64_t admin_ops = 0, admin_failed = 0;  // DeleteRange / SetTtl calls

  // Closed-loop writer.
  auto writer = [&](uint64_t deadline, std::vector<double>* append_us) {
    uint64_t t_start = NowNs();
    while (NowNs() < deadline) {
      SeriesState& s = *series[batches % kSeries];
      ++batches;
      uint64_t first = s.next;
      int64_t delta = 0;
      bool in_order = true;
      if (s.kind == Kind::kOoo) {
        uint64_t r = wrng.Below(32);
        if (r < 2) {
          s.held.push_back(s.next);  // this batch arrives late
          s.next += kBatch;
          continue;
        }
        if (r == 2 && !s.held.empty() &&
            s.next >= s.held.front() + 4 * kBatch) {
          first = s.held.front();  // a late batch arrives
          s.held.erase(s.held.begin());
          in_order = false;
        } else if (r == 3 && s.next >= kPrefill) {
          // Rewrite a recent batch that was sent (never a held one).
          uint64_t back = (1 + wrng.Below(32)) * kBatch;
          uint64_t cand = s.next - back;
          if (std::find(s.held.begin(), s.held.end(), cand) == s.held.end()) {
            first = cand;
            delta = 1000 * static_cast<int64_t>(s.rewrites.size() + 1);
            s.rewrites.push_back({first, delta});
            in_order = false;
          }
        }
      }
      uint64_t dt = 0;
      Status st = Send(db.get(), &s, first, kBatch, delta, &dt);
      wlog.write_ns += dt;
      wlog.batch_ms.push_back(NsToMs(dt));
      if (append_us != nullptr) append_us->push_back(NsToUs(dt));
      if (!st.ok()) {
        // Nothing of a refused batch was applied.
        ++wlog.batches_failed;
        if (delta != 0) s.rewrites.pop_back();
        if (!in_order && delta == 0) s.held.insert(s.held.begin(), first);
        continue;
      }
      wlog.points += kBatch;
      if (in_order) {
        s.next += kBatch;
        s.acked.store(s.next, std::memory_order_release);
      }
      if (batches % kDeleteEvery == 0) {
        // Delete a 200-point span the reader's recent windows reach.
        SeriesState& d = *series[wrng.Below(kStrictInt)];
        uint64_t n = d.acked.load();
        int64_t lo = d.pattern.Time(n - 1500), hi = d.pattern.Time(n - 1300);
        {
          std::lock_guard<std::mutex> lock(d.mu);
          d.deletes.push_back({lo, hi});
          d.deletes_started.store(d.deletes.size(), std::memory_order_release);
        }
        Status ds = db->DeleteRange(d.name, lo, hi);
        ++admin_ops;
        std::lock_guard<std::mutex> lock(d.mu);
        if (!ds.ok()) {
          ++admin_failed;
          d.deletes.pop_back();
          d.deletes_started.store(d.deletes.size(), std::memory_order_release);
        }
        d.deletes_done.store(d.deletes.size(), std::memory_order_release);
      }
      if (batches % kTtlEvery == 0) {
        // Shrink one float series' retention by 10% (never grows, so
        // compaction dropping expired points cannot change the answer).
        SeriesState& f = *series[kStrictInt + wrng.Below(kFloat)];
        int64_t floor = 100'000 * f.pattern.period /
                        static_cast<int64_t>(f.pattern.t.size());
        int64_t ttl = std::max(floor, f.ttl - f.ttl / 10);
        ++admin_ops;
        if (db->SetTtl(f.name, ttl).ok()) {
          f.ttl = ttl;
        } else {
          ++admin_failed;
        }
      }
    }
    e.writer_wall_s += static_cast<double>(NowNs() - t_start) / 1e9;
  };

  // Closed-loop reader over strict int and float series.
  Rng rrng(args.seed ^ 0x7ead);
  auto reader = [&](uint64_t deadline, LayerProbe* probe, QueryLog* log) {
    uint64_t ready = NowNs();
    uint64_t id = 0;
    while (NowNs() < deadline) {
      SeriesState& s = *series[rrng.Below(kStrictInt + kFloat)];
      uint64_t n = s.acked.load(std::memory_order_acquire);
      uint64_t b = n - 1 - rrng.Below(kReach - kWindow);
      uint64_t a = b - kWindow + 1;
      int shape = static_cast<int>(rrng.Below(s.kind == Kind::kFloat ? 2 : 3));
      const char* fn[] = {"AVG", "SUM", "MAX"};
      char sql[256];
      std::snprintf(sql, sizeof(sql),
                    "SELECT %s(v) FROM %s WHERE time >= %lld AND time <= %lld",
                    fn[shape], s.name.c_str(),
                    static_cast<long long>(s.pattern.Time(a)),
                    static_cast<long long>(s.pattern.Time(b)));
      size_t d0 = s.deletes_done.load(std::memory_order_acquire);
      uint64_t t0 = NowNs();
      uint64_t query_ns = 0;
      Result<QueryResult> r =
          probe != nullptr ? probe->Request("default", sql, id++, &query_ns)
                           : db->Query(sql);
      uint64_t t1 = NowNs();
      if (probe == nullptr) query_ns = t1 - t0;
      size_t d1 = s.deletes_started.load(std::memory_order_acquire);
      log->Add(r, true, query_ns, query_ns, t0 - ready, args.slo_ms);
      if (r.ok()) {
        const QueryResult& q = r.value();
        double got = q.columns.empty() || q.columns.back().empty()
                         ? NAN
                         : q.columns.back()[0];
        std::vector<std::pair<int64_t, int64_t>> del;
        {
          std::lock_guard<std::mutex> lock(s.mu);
          del = s.deletes;
        }
        bool ok = false;
        for (size_t k = d0; k <= std::min(d1, del.size()) && !ok; ++k) {
          ok = Close(got, ExpectedAggregate(s, a, b, del, k, shape));
        }
        if (!ok) {
          report->Mismatch(std::string(sql) + ": got " + std::to_string(got));
        }
      }
      ready = NowNs();
    }
  };

  Layers layers;
  auto run_window = [&](double seconds, LayerProbe* probe, QueryLog* log,
                        std::vector<double>* append_us) {
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    std::thread w([&] { writer(deadline, append_us); });
    reader(deadline, probe, log);
    w.join();
  };

  if (!args.trace) {
    run_window(args.seconds, nullptr, &e.queries, nullptr);
  } else {
    QueryLog untraced, traced;
    run_window(args.seconds / 2, nullptr, &untraced, nullptr);
    Tracer tracer;
    db->SetCollectStats(true);
    LayerProbe probe(db.get(), &tracer, &layers);
    layers.cache_before = db->cache_stats();
    run_window(args.seconds / 2, &probe, &traced, &layers.append_us);
    layers.cache_after = db->cache_stats();
    layers.queries = traced.attempted;
    layers.untraced_p50_ms = Percentile(untraced.latency_ms, 0.5);
    layers.traced_p50_ms = Percentile(traced.latency_ms, 0.5);
    layers.lag_ms = traced.lag_ms;
    layers.ingest = db->ingest_stats();
    layers.compaction = db->compaction_stats();
    untraced.Merge(traced);
    e.queries = untraced;
    tracer.Write(TracePath(args));
  }

  phase.emplace(report, "check");
  Status st = ReconcileLatePoints(db.get());
  if (!st.ok()) report->Mismatch("final compaction: " + st.ToString());
  std::vector<std::string> names;
  for (auto& s : series) names.push_back(s->name);
  e.bytes_per_point = BytesPerPoint(db.get(), names);
  size_t checked_points = 0;
  for (auto& s : series) checked_points += CheckFinalSeries(db.get(), *s, report);

  phase.reset();
  if (!args.trace) {
    report->attempted = e.queries.attempted + wlog.batch_ms.size() + admin_ops;
    report->failed = e.queries.failed + wlog.batches_failed + admin_failed;
    EmitEndToEnd(args, e, report);
  } else {
    std::vector<std::shared_ptr<const etsqp::storage::Page>> pages;
    for (int s = 0; s < 8; ++s) {
      auto p = SeriesPages(db.get(), series[s]->name, 16);
      pages.insert(pages.end(), p.begin(), p.end());
    }
    ProbeKernels(pages, SeriesPages(db.get(), series[0]->name, 64),
                 SeriesPages(db.get(), series[1]->name, 64), &layers);
    report->attempted = e.queries.attempted + wlog.batch_ms.size() + admin_ops;
    report->failed = e.queries.failed + wlog.batches_failed + admin_failed;
    EmitLayers(layers, report);
  }
  report->Record("checked_points", static_cast<double>(checked_points),
                 "count");
  report->Record("writer_batches", static_cast<double>(wlog.batch_ms.size()),
                 "count");
  report->notes["engine"] =
      "4 shards, threads=2, cache 4 MiB, WAL kBatch, background seal, "
      "auto compaction every 64 pages; 1 writer + 1 reader, closed loop";
  db.reset();
  RemoveTree(tmp);
  return 0;
}

}  // namespace perfbench
