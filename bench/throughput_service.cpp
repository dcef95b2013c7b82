// Concurrency baseline for the sharded SPE memory service (src/runtime):
// replays a sim::workloads trace (block-granular, post-L2 traffic model:
// every trace line is one NVMM block op) against MemoryService at several
// worker-thread / shard configurations and prints an aggregate
// throughput + latency table. Future PRs that touch the service or the
// cipher hot path should keep the 4w/8s row >= 2x the 1w/1s row on
// multi-core hosts.
//
// `--smoke` instead runs the tracing-overhead gate: the same replay with
// the Tracer off vs on (alternating, min of 3 each), failing if tracing
// costs more than SPE_OBS_MAX_OVERHEAD percent (default 5) — the CI bound
// on span instrumentation in the datapath.
//
// Either mode dumps the final run's metrics export at exit: to the file
// named by SPE_METRICS_OUT when set, otherwise to stdout (table mode only).
//
// Flags: --smoke, --ops N, --window N, --workload NAME (each flag falls
// back to its environment override when absent), --json PATH (table mode:
// write the best-config row as a BENCH_throughput.json report and print a
// delta line against the previous file at that path), --latency-json PATH
// (run the batch-submit sweep — batch sizes 1/2/4/8/16/32 through the
// batch submit API, rows differing only in how ops are grouped at submit —
// and write the rows as BENCH_latency.json).
// Overrides: SPE_SVC_OPS (trace length), SPE_SVC_WORKLOAD (suite name),
//            SPE_SVC_WINDOW (max outstanding submissions per client),
//            SPE_OBS_MAX_OVERHEAD (--smoke gate, percent),
//            SPE_METRICS_OUT (metrics dump path),
//            SPE_GIT_SHA (report stamp override, see bench_util).
//
// The --smoke gate verdict never depends on the metrics dump: a failed
// gate prints exactly one "SMOKE FAIL: <reason>" line on stderr and exits
// nonzero whether or not SPE_METRICS_OUT is set or writable.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/trace.hpp"
#include "runtime/memory_service.hpp"
#include "sim/workloads.hpp"
#include "util/table.hpp"

namespace {

using spe::runtime::MemoryService;
using spe::runtime::ServiceConfig;
using spe::obs::MetricsRegistry;

std::uint64_t total(const MetricsRegistry& m, const char* name) {
  return m.at<spe::obs::Counter>(name).value();
}
std::uint64_t total_ops(const MetricsRegistry& m) {
  return total(m, "spe_reads_total") + total(m, "spe_writes_total");
}
spe::obs::Histogram::Snapshot latency(const MetricsRegistry& m, const char* name) {
  return m.at<spe::obs::Histogram>(name).snapshot();
}

struct TraceOp {
  std::uint64_t block = 0;
  bool is_write = false;
};

// Block-granular trace: the service models the memory side of the L2
// boundary, so consecutive touches to the same 64B line collapse into the
// line's block address.
std::vector<TraceOp> build_trace(const std::string& workload, unsigned ops) {
  const spe::sim::WorkloadSpec& spec = spe::sim::workload_by_name(workload);
  spe::sim::TraceGenerator gen(spec, /*seed=*/42);
  // Skip the init sweep: steady-state traffic is what the table should rank.
  while (gen.in_init_phase()) (void)gen.next();
  std::vector<TraceOp> trace;
  trace.reserve(ops);
  while (trace.size() < ops) {
    const spe::sim::MemAccess access = gen.next();
    trace.push_back({access.addr >> 6, access.is_write});
  }
  return trace;
}

struct RunResult {
  double seconds = 0.0;
  double ops_per_sec = 0.0;
  unsigned block_bytes = 0;
  std::unique_ptr<MetricsRegistry> metrics;  ///< filled before shutdown
};

RunResult replay(const std::vector<TraceOp>& trace, unsigned workers, unsigned shards,
                 std::size_t window, bool tracing = false) {
  ServiceConfig cfg;
  cfg.worker_threads = workers;
  cfg.shards = shards;
  cfg.queue_capacity = window * 2;
  cfg.obs.trace = tracing;
  if (!tracing) spe::obs::Tracer::instance().disable();
  MemoryService service(cfg);
  const unsigned block_bytes = service.block_bytes();
  std::vector<std::uint8_t> payload(block_bytes, 0);

  const auto start = std::chrono::steady_clock::now();
  std::deque<std::future<void>> writes;
  std::deque<std::future<std::vector<std::uint8_t>>> reads;
  for (const TraceOp& op : trace) {
    if (op.is_write) {
      for (unsigned i = 0; i < block_bytes; ++i)
        payload[i] = static_cast<std::uint8_t>(op.block * 7 + i);
      writes.push_back(service.submit_write(op.block, payload));
    } else {
      reads.push_back(service.submit_read(op.block));
    }
    // Bounded outstanding window: retire oldest first, like an MSHR file.
    while (writes.size() + reads.size() >= window) {
      if (!writes.empty()) {
        writes.front().get();
        writes.pop_front();
      } else {
        (void)reads.front().get();
        reads.pop_front();
      }
    }
  }
  for (auto& f : writes) f.get();
  for (auto& f : reads) (void)f.get();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  RunResult result;
  result.metrics = std::make_unique<MetricsRegistry>();
  service.fill_metrics(*result.metrics);
  result.block_bytes = block_bytes;
  result.seconds = std::chrono::duration<double>(elapsed).count();
  result.ops_per_sec = static_cast<double>(total_ops(*result.metrics)) / result.seconds;
  service.stop();
  return result;
}

double us(std::chrono::nanoseconds ns) { return static_cast<double>(ns.count()) / 1000.0; }

// One row of the batch-submit sweep: the same trace replayed through the
// batch submit API in groups of `batch` same-kind ops. Every row runs the
// same cipher path; only the submit grouping (and so the queue drains it
// produces) changes.
spe::benchutil::LatencyRow sweep_run(const std::vector<TraceOp>& trace,
                                     unsigned batch, std::size_t window) {
  ServiceConfig cfg;
  cfg.worker_threads = 4;
  cfg.shards = 8;
  cfg.queue_capacity = std::max<std::size_t>(window * 2, batch * 2);
  // The sweep tracks the *cipher* trajectory: SEC-DED verify costs the same
  // in every row (it has its own campaign coverage), so it is switched off
  // here — otherwise it dilutes the cipher signal.
  cfg.ecc_enabled = false;
  cfg.obs.trace = false;
  spe::obs::Tracer::instance().disable();
  MemoryService service(cfg);
  const unsigned block_bytes = service.block_bytes();

  std::deque<std::future<void>> writes;
  std::deque<std::future<std::vector<std::uint8_t>>> reads;
  std::vector<std::uint64_t> read_group, write_group;
  std::vector<std::uint8_t> write_data;
  const auto flush_reads = [&] {
    if (read_group.empty()) return;
    for (auto& f : service.submit_read_batch(read_group))
      reads.push_back(std::move(f));
    read_group.clear();
  };
  const auto flush_writes = [&] {
    if (write_group.empty()) return;
    for (auto& f : service.submit_write_batch(write_group, write_data))
      writes.push_back(std::move(f));
    write_group.clear();
    write_data.clear();
  };

  const auto start = std::chrono::steady_clock::now();
  for (const TraceOp& op : trace) {
    if (op.is_write) {
      flush_reads();  // keep groups kind-pure (they become same-kind runs)
      write_group.push_back(op.block);
      const std::size_t off = write_data.size();
      write_data.resize(off + block_bytes);
      for (unsigned i = 0; i < block_bytes; ++i)
        write_data[off + i] = static_cast<std::uint8_t>(op.block * 7 + i);
      if (write_group.size() >= batch) flush_writes();
    } else {
      flush_writes();
      read_group.push_back(op.block);
      if (read_group.size() >= batch) flush_reads();
    }
    while (writes.size() + reads.size() >= window) {
      if (!writes.empty()) {
        writes.front().get();
        writes.pop_front();
      } else {
        (void)reads.front().get();
        reads.pop_front();
      }
    }
  }
  flush_reads();
  flush_writes();
  for (auto& f : writes) f.get();
  for (auto& f : reads) (void)f.get();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  MetricsRegistry metrics;
  service.fill_metrics(metrics);
  service.stop();
  const auto read_latency = latency(metrics, "spe_read_latency_ns");
  spe::benchutil::LatencyRow row;
  row.batch = batch;
  row.ops_per_sec = static_cast<double>(total_ops(metrics)) /
                    std::chrono::duration<double>(elapsed).count();
  row.p50_us = us(read_latency.p50());
  row.p95_us = us(read_latency.p95());
  row.p99_us = us(read_latency.p99());
  return row;
}

void dump_metrics(const std::string& metrics, bool to_stdout) {
  if (const char* path = std::getenv("SPE_METRICS_OUT"); path && *path) {
    std::ofstream out(path, std::ios::trunc);
    if (out) {
      out << metrics;
      std::printf("\nmetrics written to %s\n", path);
      return;
    }
    std::fprintf(stderr, "throughput_service: cannot write %s\n", path);
  }
  if (to_stdout) std::printf("\n--- metrics export (Prometheus text) ---\n%s", metrics.c_str());
}

/// Tracing-overhead gate (CI): off/on replays alternate so drift hits both
/// sides; min-of-N filters scheduler noise. Returns the process exit code.
/// The pass/fail verdict is computed before any metrics dump so a missing
/// or unwritable SPE_METRICS_OUT cannot mask (or cause) a gate failure.
int run_smoke(const std::vector<TraceOp>& trace, unsigned window) {
  const unsigned max_overhead_pct =
      std::max(1u, spe::benchutil::env_or("SPE_OBS_MAX_OVERHEAD", 5));
  constexpr int kRounds = 3;
  double min_off = 0.0, min_on = 0.0;
  std::string metrics;
  for (int round = 0; round < kRounds; ++round) {
    const RunResult off = replay(trace, 2, 4, window, /*tracing=*/false);
    const RunResult on = replay(trace, 2, 4, window, /*tracing=*/true);
    if (round == 0 || off.seconds < min_off) min_off = off.seconds;
    if (round == 0 || on.seconds < min_on) min_on = on.seconds;
    metrics = on.metrics->render(spe::obs::MetricsFormat::Prometheus);
  }
  spe::obs::Tracer::instance().disable();
  const double overhead_pct =
      min_on <= min_off ? 0.0 : (min_on - min_off) / min_off * 100.0;
  std::printf("tracing overhead: off=%.1fms on=%.1fms -> %.2f%% (limit %u%%)\n",
              min_off * 1000.0, min_on * 1000.0, overhead_pct, max_overhead_pct);
  const bool failed = overhead_pct > static_cast<double>(max_overhead_pct);
  if (failed) {
    std::fprintf(stderr, "SMOKE FAIL: tracing overhead %.2f%% exceeds limit %u%%\n",
                 overhead_pct, max_overhead_pct);
  }
  dump_metrics(metrics, /*to_stdout=*/false);
  if (failed) return 1;
  std::printf("smoke OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  spe::benchutil::Args args(argc, argv);
  const bool smoke = args.flag("smoke");
  const unsigned ops =
      std::max(1u, args.uns("ops", spe::benchutil::env_or("SPE_SVC_OPS", 2000)));
  const unsigned window =
      std::max(1u, args.uns("window", spe::benchutil::env_or("SPE_SVC_WINDOW", 256)));
  const char* workload_env = std::getenv("SPE_SVC_WORKLOAD");
  const std::string workload = args.str(
      "workload", workload_env && *workload_env ? workload_env : "bzip2");
  const std::string json_path = args.str("json", "");
  const std::string latency_json_path = args.str("latency-json", "");
  if (!args.ok(stderr)) return 2;

  if (smoke) {
    std::printf("throughput_service --smoke: %s, %u block ops, window %u\n",
                workload.c_str(), ops, window);
    try {
      return run_smoke(build_trace(workload, ops), window);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "SMOKE FAIL: %s\n", e.what());
      return 1;
    }
  }

  spe::benchutil::banner(
      "Sharded SPE memory service throughput (" + workload + ", " +
          std::to_string(ops) + " block ops, window " + std::to_string(window) + ")",
      "runtime concurrency baseline (not a paper figure)");

  std::vector<TraceOp> trace;
  try {
    trace = build_trace(workload, ops);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "throughput_service: %s\n", e.what());
    return 1;
  }
  unsigned trace_writes = 0;
  for (const TraceOp& op : trace) trace_writes += op.is_write ? 1 : 0;
  std::printf("trace: %zu ops (%u writes / %zu reads), steady-state phase\n\n",
              trace.size(), trace_writes, trace.size() - trace_writes);

  struct Config {
    unsigned workers;
    unsigned shards;
  };
  const std::vector<Config> configs = {{1, 1}, {1, 8}, {2, 8}, {4, 8}};

  spe::util::Table table({"workers", "shards", "kops/s", "speedup", "rd p50us",
                          "rd p95us", "rd p99us", "wr p50us", "wr p95us",
                          "wr p99us", "coalesced", "hwm"});
  double base_ops_per_sec = 0.0;
  std::string last_metrics;
  unsigned block_bytes = 0;
  spe::benchutil::ThroughputReport best;
  best.source = "throughput_service";
  for (const Config& c : configs) {
    const RunResult r = replay(trace, c.workers, c.shards, window);
    const auto rd = latency(*r.metrics, "spe_read_latency_ns");
    const auto wr = latency(*r.metrics, "spe_write_latency_ns");
    last_metrics = r.metrics->render(spe::obs::MetricsFormat::Prometheus);
    block_bytes = r.block_bytes;
    if (r.ops_per_sec > best.ops_per_sec) {
      best.config = std::to_string(c.workers) + "w/" + std::to_string(c.shards) +
                    "s window=" + std::to_string(window) + " workload=" + workload;
      best.ops = total_ops(*r.metrics);
      best.ops_per_sec = r.ops_per_sec;
      best.bytes_per_cycle =
          spe::benchutil::bytes_per_cycle(r.ops_per_sec, r.block_bytes);
      best.p50_us = us(rd.p50());
      best.p95_us = us(rd.p95());
      best.p99_us = us(rd.p99());
    }
    if (base_ops_per_sec == 0.0) base_ops_per_sec = r.ops_per_sec;
    table.add_row({std::to_string(c.workers), std::to_string(c.shards),
                   spe::util::Table::fmt(r.ops_per_sec / 1000.0, 2),
                   spe::util::Table::fmt(r.ops_per_sec / base_ops_per_sec, 2),
                   spe::util::Table::fmt(us(rd.p50()), 1),
                   spe::util::Table::fmt(us(rd.p95()), 1),
                   spe::util::Table::fmt(us(rd.p99()), 1),
                   spe::util::Table::fmt(us(wr.p50()), 1),
                   spe::util::Table::fmt(us(wr.p95()), 1),
                   spe::util::Table::fmt(us(wr.p99()), 1),
                   std::to_string(total(*r.metrics, "spe_writes_coalesced_total")),
                   std::to_string(static_cast<std::uint64_t>(
                       r.metrics->at<spe::obs::Gauge>("spe_queue_high_water").value()))});
  }
  table.print();
  std::printf(
      "\nspeedup = aggregate block-op throughput vs the 1-worker/1-shard row.\n"
      "Single-core hosts will show ~1x for the threaded rows (plus any\n"
      "coalescing gain); the >=2x acceptance bar targets >=4-core hosts.\n");
  dump_metrics(last_metrics, /*to_stdout=*/true);
  if (!json_path.empty() &&
      !spe::benchutil::write_throughput_json(json_path, best))
    return 1;

  if (!latency_json_path.empty()) {
    std::printf("\nbatch-submit sweep (4w/8s, speedup vs the batch-1 row):\n");
    spe::benchutil::LatencyReport sweep;
    sweep.source = "throughput_service";
    sweep.config = "4w/8s window=" + std::to_string(window) +
                   " workload=" + workload + " block_bytes=" +
                   std::to_string(block_bytes);
    double single_ops_per_sec = 0.0;
    for (const unsigned batch : {1u, 2u, 4u, 8u, 16u, 32u}) {
      const spe::benchutil::LatencyRow row = sweep_run(trace, batch, window);
      sweep.rows.push_back(row);
      if (batch == 1) single_ops_per_sec = row.ops_per_sec;
      const double speedup =
          single_ops_per_sec > 0.0 ? row.ops_per_sec / single_ops_per_sec : 0.0;
      std::printf("  batch %2u: %8.1f kops/s (%.2fx)  p50=%.1fus p99=%.1fus\n",
                  batch, row.ops_per_sec / 1000.0, speedup, row.p50_us,
                  row.p99_us);
    }
    if (!spe::benchutil::write_latency_json(latency_json_path, sweep)) return 1;
    std::printf("sweep written to %s\n", latency_json_path.c_str());
  }
  return 0;
}
