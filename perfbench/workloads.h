// Pieces every workload shares: timed set-up calls, the per-query log of the
// timed loop, the traced layer-by-layer request, the kernel probes on a
// workload's own pages, and the emitters that give every workload the same
// metric names and order.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "db/database.h"
#include "exec/engine.h"
#include "harness.h"
#include "storage/buffer_manager.h"
#include "workload/generators.h"

namespace perfbench {

using etsqp::Result;
using etsqp::Status;
using etsqp::db::Database;
using etsqp::exec::ExecStats;
using etsqp::exec::QueryResult;

/// Writes as the program sees them: every InsertBatch call timed, plus the
/// time inside all calls that build state (create/insert/flush, compaction,
/// Save/OpenFile). Input generation is never inside these timers.
struct WriteLog {
  std::vector<double> batch_ms;  // one sample per InsertBatch call
  uint64_t points = 0;           // acknowledged points
  uint64_t write_ns = 0;         // inside InsertBatch/Flush
  uint64_t setup_ns = 0;         // inside every state-building call
  uint64_t batches_failed = 0;
};

/// Creates `name` (pages of `page_size` points) and appends `n` points in
/// batches of `batch`, timing each call into `log`. Fails the whole set-up
/// on the first refused call.
Status LoadSeries(Database* db, const std::string& name, const int64_t* times,
                  const int64_t* values, size_t n, size_t batch,
                  WriteLog* log, uint32_t page_size = 4096);

/// Loads the scalar oracle: small pages, so its serial decode of a short
/// window stays cheap, and page boundaries differ from the database under
/// test.
inline Status LoadOracleSeries(Database* oracle, const std::string& name,
                               const int64_t* times, const int64_t* values,
                               size_t n) {
  WriteLog unused;
  return LoadSeries(oracle, name, times, values, n, 1 << 20, &unused, 256);
}

/// Flush() timed as a write (it seals the buffered tails).
Status TimedFlush(Database* db, WriteLog* log);

/// Times one state-building call into `log->setup_ns`.
template <typename F>
Status TimedSetup(WriteLog* log, F&& call) {
  uint64_t t0 = NowNs();
  Status st = call();
  log->setup_ns += NowNs() - t0;
  return st;
}

/// The timed loop's view of its queries.
struct QueryLog {
  std::vector<double> latency_ms;  // every query, failures excluded
  std::vector<double> agg_ms;      // single-series aggregates
  std::vector<double> merge_ms;    // two-input plans (Q4-Q6)
  std::vector<double> lag_ms;      // how late the generator sent
  uint64_t tuples_in_pages = 0;    // tuples of loaded pages, pruned included
  uint64_t query_ns = 0;           // summed service time of counted queries
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t slo_miss = 0;           // over the limit, failures included
  uint64_t cache_hits = 0;

  /// Books one finished query. `latency_ns` is from the request's due
  /// time for open loops, from its send time otherwise; `service_ns` is
  /// from its send time.
  void Add(const Result<QueryResult>& r, bool aggregate, uint64_t latency_ns,
           uint64_t service_ns, uint64_t lag_ns, double slo_ms);
  /// Books a request that was due but never sent: the run ended with the
  /// generator this far behind (an overloaded open loop).
  void AddUnsent();
  void Merge(const QueryLog& o);
};

/// End-to-end figures of one run, emitted in BENCHMARK.json's order.
struct EndToEnd {
  std::vector<double> setup_s;  // one per set-up
  WriteLog writes;  // the writer: set-up loads, or ingest's writer
  double writer_wall_s = 0;     // writer wall clock
  QueryLog queries;
  double bytes_per_point = 0;
};

/// Books one finished set-up: its duration and, when the set-up loader is
/// the workload's writer, its writes.
void BookSetup(const WriteLog& log, bool writer, EndToEnd* e);

void EmitEndToEnd(const Args& args, const EndToEnd& e, Report* report);

/// Per-layer figures of the traced run.
struct Layers {
  std::vector<double> plan_us, snapshot_us, resolve_us, build_us, run_us,
      execute_us, query_us, query_self_us, admission_us, append_us, lag_ms;
  ExecStats exec;          // summed over traced executes (stats on)
  uint64_t executes = 0;
  uint64_t queries = 0;    // Database::Query calls in the traced window
  etsqp::db::ResultCache::Stats cache_before, cache_after;
  etsqp::metrics::IngestStats ingest;
  etsqp::metrics::CompactionStats compaction;
  uint64_t pool_hits = 0, pool_loads = 0, pool_queries = 0;
  // Kernel probes on the workload's own pages.
  double ts2diff_serial_ns = 0, gorilla_serial_ns = 0, etsqp_ns = 0,
         merge_ns = 0;
  // Tracing overhead: query p50 of an untraced window vs the traced one.
  double untraced_p50_ms = 0, traced_p50_ms = 0;
};

void EmitLayers(const Layers& l, Report* report);

/// Calls each layer's entry point for `sql` in order — sql::PlanQuery,
/// SeriesStore::GetSnapshot on the owning shard, exec::ResolveInputs,
/// exec::BuildPipeline, Engine::Execute — and Database::Query on the same
/// SQL, recording one span per call under a per-request root span. Odd
/// request ids run Database::Query first, so neither side always finds the
/// data warm. With `file` set (the cold path) the engine runs on that
/// file-backed store and the in-memory snapshot/resolve/build steps are
/// skipped. `query_ns` receives the Database::Query span alone — the
/// request's end-to-end latency in the traced run.
class LayerProbe {
 public:
  LayerProbe(Database* db, Tracer* tracer, Layers* layers)
      : db_(db), tracer_(tracer), layers_(layers) {}

  Result<QueryResult> Request(const std::string& tenant,
                              const std::string& sql, uint64_t query_id,
                              uint64_t* query_ns,
                              etsqp::storage::FileBackedStore* file = nullptr);

 private:
  Database* db_;
  Tracer* tracer_;
  Layers* layers_;
};

/// Times DecodeColumn(kSerial) and DecodeColumn(kEtsqp) over the value
/// columns of `pages` (TS2DIFF ones), DecodeColumn(kSerial) over the same
/// points re-encoded as Gorilla pages, and the merge kernels on the time
/// columns of `left` and `right`. Fills the kernel fields of `layers`.
void ProbeKernels(
    const std::vector<std::shared_ptr<const etsqp::storage::Page>>& pages,
    const std::vector<std::shared_ptr<const etsqp::storage::Page>>& left,
    const std::vector<std::shared_ptr<const etsqp::storage::Page>>& right,
    Layers* layers);

/// Up to `max_pages` sealed pages of `series` from its owning shard.
std::vector<std::shared_ptr<const etsqp::storage::Page>> SeriesPages(
    Database* db, const std::string& series, size_t max_pages);

/// Encoded bytes over stored points across `series`.
double BytesPerPoint(Database* db, const std::vector<std::string>& series);

/// A fresh directory under args.out_dir for this run's files.
std::string RunTempDir(const Args& args);
void RemoveTree(const std::string& path);

/// A query result kept for the correctness gate, as its digest.
struct Checked {
  std::string sql;
  uint64_t digest = 0;
  size_t rows = 0;
};

/// The correctness gate of the dashboard workloads: asks `oracle` once per
/// distinct statement (on `threads` threads) and compares the digest of
/// every kept result with its answer's, booking mismatches on `report`.
/// Returns the number of distinct statements.
size_t CheckAgainstOracle(const Database& oracle,
                          const std::vector<std::vector<Checked>>& results,
                          int threads, Report* report);

/// Options of the scalar single-shard oracle every result is checked
/// against.
Database::Options OracleOptions();

/// Digests of each workload's generated inputs for a seed (self-tests).
uint64_t ScanInputDigest(uint64_t seed);
uint64_t FleetInputDigest(uint64_t seed);
uint64_t IngestInputDigest(uint64_t seed);

/// Deterministic counters of one single-client pass of the scan mix over a
/// scaled-down scan dataset (self-tests).
struct ScanCounts {
  uint64_t pages_total = 0;
  uint64_t pages_pruned = 0;
  uint64_t tuples_in_pages = 0;
  double bytes_per_point = 0;
  bool operator==(const ScanCounts& o) const {
    return pages_total == o.pages_total && pages_pruned == o.pages_pruned &&
           tuples_in_pages == o.tuples_in_pages &&
           bytes_per_point == o.bytes_per_point;
  }
};
ScanCounts ScanPassCounts(uint64_t seed, double scale);

/// FNV-1a over a run of int64 words, chained through `h`.
uint64_t HashWords(uint64_t h, const int64_t* words, size_t n);

int RunScan(const Args& args, Report* report);
int RunServe(const Args& args, Report* report);
int RunIngest(const Args& args, Report* report);
int RunCold(const Args& args, Report* report);
int RunSelfTest(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
