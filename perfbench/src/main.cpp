// spe_perfbench: the repository benchmark (see ../README.md).
//
//   spe_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 sets the system up three times (the median is setup_s), drives
// the last set-up closed-loop for S seconds, reads every resident block back
// against the shadow copy, and prints the end-to-end metrics.
// --trace 1 runs S/2 seconds untraced for reference, then sets up a fresh
// service with tracing enabled through ObsConfig at construction, drives it
// S/2 seconds, collects the trace and prints the per-layer metrics.
//
// Each metric is printed on its own line, and the last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
// status is nonzero on any failed op, shadow mismatch, read-back failure,
// zero completed ops, or (traced) dropped or malformed trace events.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/area_model.hpp"
#include "core/calibration.hpp"
#include "core/snvmm.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr unsigned kSetupReps = 3;
constexpr unsigned kWindows = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_shadow = false;  ///< self-test: the checker must flag this run
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-shadow") {
      args.corrupt_shadow = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args.workload.empty() && args.seconds > 0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string samples_note(std::size_t n) { return "(n=" + std::to_string(n) + ")"; }

/// The end-to-end figures of one slice of a measured phase.
struct Window {
  double ops_per_s = 0;
  double read_p50_us = 0;
  double read_p99_us = 0;
  double write_p50_us = 0;
  double write_p99_us = 0;
};

/// Splits the phase into kWindows equal slices by completion time; the
/// reported figures are medians over the slices, so a burst of outside load
/// in one slice does not move them.
std::vector<Window> windows_of(const PhaseResult& phase) {
  const double slice_ns = phase.seconds * 1e9 / kWindows;
  std::vector<std::vector<std::uint64_t>> reads(kWindows);
  std::vector<std::vector<std::uint64_t>> writes(kWindows);
  const auto slice = [&](const Sample& s) {
    return std::min<std::size_t>(kWindows - 1,
                                 static_cast<std::size_t>(static_cast<double>(s.at_ns) / slice_ns));
  };
  for (const Sample& s : phase.read_samples) reads[slice(s)].push_back(s.latency_ns);
  for (const Sample& s : phase.write_samples) writes[slice(s)].push_back(s.latency_ns);
  std::vector<Window> windows(kWindows);
  for (unsigned w = 0; w < kWindows; ++w) {
    windows[w].ops_per_s =
        static_cast<double>(reads[w].size() + writes[w].size()) / (slice_ns / 1e9);
    windows[w].read_p50_us = quantile_us(reads[w], 0.50);
    windows[w].read_p99_us = quantile_us(reads[w], 0.99);
    windows[w].write_p50_us = quantile_us(writes[w], 0.50);
    windows[w].write_p99_us = quantile_us(writes[w], 0.99);
  }
  return windows;
}

double median_over(const std::vector<Window>& windows, double Window::*field) {
  std::vector<double> v;
  for (const Window& w : windows) v.push_back(w.*field);
  return median(v);
}

std::string list_note(const std::vector<Window>& windows, double Window::*field,
                      std::size_t samples) {
  std::string note = "(n=" + std::to_string(samples) + "; slices";
  char buf[32];
  for (const Window& w : windows) {
    std::snprintf(buf, sizeof(buf), " %.1f", w.*field);
    note += buf;
  }
  return note + ")";
}

void print_phase_problems(const PhaseResult& phase, const ReadBack& readback) {
  if (phase.failed + phase.mismatches + readback.failures == 0) return;
  std::printf("  FAILED: %llu failed ops, %llu shadow mismatches, %llu read-back failures%s%s\n",
              static_cast<unsigned long long>(phase.failed),
              static_cast<unsigned long long>(phase.mismatches),
              static_cast<unsigned long long>(readback.failures),
              phase.first_error.empty() ? "" : "; first error: ",
              phase.first_error.c_str());
}

int run_end_to_end(const WorkloadSpec& spec, const Args& args) {
  std::vector<double> setups;
  std::unique_ptr<Deployment> dep;
  for (unsigned r = 0; r < kSetupReps; ++r) {
    dep.reset();
    dep = deploy(spec, args.seed, {});
    setups.push_back(dep->times.total_s);
  }
  if (args.corrupt_shadow) dep->shadows[0].corrupt(0);

  const PhaseResult phase = run_phase(*dep, args.seed, args.seconds, false);
  const ReadBack readback = verify_resident(*dep);
  dep.reset();

  const std::uint64_t failed = phase.failed + phase.mismatches + readback.failures;
  const std::uint64_t attempted =
      std::max<std::uint64_t>(1, phase.attempted() + readback.blocks);
  std::string setup_note = "(median of";
  for (const double s : setups) setup_note += " " + std::to_string(s);
  setup_note += ")";
  const std::vector<Window> windows = windows_of(phase);
  const std::size_t reads = phase.read_samples.size();
  const std::size_t writes = phase.write_samples.size();
  const std::vector<Metric> metrics = {
      {"ops_per_s", median_over(windows, &Window::ops_per_s), "ops/s",
       list_note(windows, &Window::ops_per_s, reads + writes)},
      {"read_p50_us", median_over(windows, &Window::read_p50_us), "us",
       list_note(windows, &Window::read_p50_us, reads)},
      {"read_p99_us", median_over(windows, &Window::read_p99_us), "us",
       list_note(windows, &Window::read_p99_us, reads)},
      {"write_p50_us", median_over(windows, &Window::write_p50_us), "us",
       list_note(windows, &Window::write_p50_us, writes)},
      {"write_p99_us", median_over(windows, &Window::write_p99_us), "us",
       list_note(windows, &Window::write_p99_us, writes)},
      {"encrypted_fraction", phase.encrypted_fraction, "ratio", "(time average, 10 ms period)"},
      {"setup_s", median(setups), "s", setup_note},
      {"peak_rss_mb", peak_rss_mib(), "MiB", ""},
  };
  const bool correct = failed == 0 && phase.ops() > 0;
  std::printf("perfbench %s: seed %llu, %.1f s measured, end-to-end\n", spec.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds);
  print_metrics(metrics);
  std::printf("  %-30s %14.4f %-9s (%llu of %llu attempted, %llu of them read-back reads)\n",
              "failed_op_ratio", ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(readback.blocks));
  print_phase_problems(phase, readback);
  print_result_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

/// The service's exported spe_* counters this benchmark turns into ratios.
struct ServiceCounters {
  double pulses = 0;
  double cipher_batched = 0;
  double journal_advances = 0;
  double writes_coalesced = 0;
  double background_encrypted = 0;
  double queue_high_water = 0;
};

ServiceCounters read_counters(const spe::runtime::MemoryService& service) {
  spe::obs::MetricsRegistry registry;
  service.fill_metrics(registry);
  const auto value = [&](const char* name) {
    return static_cast<double>(registry.counter(name).value());
  };
  ServiceCounters c;
  c.pulses = value("spe_encrypt_pulses_total") + value("spe_decrypt_pulses_total");
  c.cipher_batched = value("spe_cipher_batched_total");
  c.journal_advances = value("spe_journal_advance_total");
  c.writes_coalesced = value("spe_writes_coalesced_total");
  c.background_encrypted = value("spe_background_encrypted_total");
  c.queue_high_water = registry.gauge("spe_queue_high_water").value();
  return c;
}

/// Every way a tenant request can be refused, summed over the tenants.
double tenant_rejections(const Deployment& dep) {
  if (!dep.tenants) return 0;
  double total = 0;
  std::vector<spe::tenant::TenantId> ids = dep.tenants->ids();
  ids.push_back(spe::tenant::kDefaultTenant);
  for (const spe::tenant::TenantId id : ids) {
    const spe::tenant::TenantCounters& c = dep.tenants->counters(id);
    total += static_cast<double>(c.denied.load() + c.auth_failures.load() +
                                 c.quota_rejections.load() + c.admission_rejections.load());
  }
  return total;
}

/// Trace ring per thread for a traced phase: generous per-op and per-second
/// allowances over the reference phase's rate, so no event is dropped.
std::size_t ring_events(const WorkloadSpec& spec, const PhaseResult& reference,
                        double seconds) {
  const double ops = ratio(static_cast<double>(reference.ops()), reference.seconds) * seconds;
  // Preload and read-back each touch every block once.
  const double blocks = 2.0 * spec.blocks * spec.streams;
  return static_cast<std::size_t>(6.0 * (ops + blocks) + 30000.0 * seconds) + 65536;
}

int run_layers(const WorkloadSpec& spec, const Args& args) {
  const double phase_seconds = args.seconds / 2.0;

  // Calibration of one fresh device, alone.
  spe::core::SnvmmConfig device;
  device.device_seed = fresh_device_seed();
  const auto params = spe::core::Snvmm(device).device_params();
  const auto cal_start = Clock::now();
  (void)spe::core::get_calibration(params);
  const double calibration_s = std::chrono::duration<double>(Clock::now() - cal_start).count();
  const double codec_ns = codec_ns_per_frame(spec, args.seed);

  // Untraced reference phase: the denominator of the tracing overhead.
  auto reference_dep = deploy(spec, args.seed, {});
  const PhaseResult reference = run_phase(*reference_dep, args.seed, phase_seconds, false);
  const ReadBack reference_readback = verify_resident(*reference_dep);
  reference_dep.reset();

  spe::runtime::ObsConfig obs;
  obs.trace = true;
  obs.trace_buffer_events = ring_events(spec, reference, phase_seconds);
  auto dep = deploy(spec, args.seed, obs);
  spe::obs::Tracer& tracer = spe::obs::Tracer::instance();
  const ServiceCounters before = read_counters(*dep->service);
  const spe::net::ServerCountersSnapshot net_before =
      dep->server ? dep->server->counters() : spe::net::ServerCountersSnapshot{};
  const std::uint64_t from = tracer.now();
  const PhaseResult phase = run_phase(*dep, args.seed, phase_seconds, true);
  const std::uint64_t to = tracer.now();
  const ServiceCounters after = read_counters(*dep->service);
  const spe::net::ServerCountersSnapshot net_after =
      dep->server ? dep->server->counters() : spe::net::ServerCountersSnapshot{};
  const double rejections = tenant_rejections(*dep);
  const ReadBack readback = verify_resident(*dep);
  // Collect at quiescence: with every thread joined, no span is still open.
  quiesce(*dep);
  const std::vector<spe::obs::TraceEvent> events = tracer.collect();
  const std::uint64_t dropped = tracer.dropped();
  tracer.disable();
  const SetupTimes setup = dep->times;
  dep.reset();

  const TraceFigures t = analyse_trace(events, from, to, phase.log);

  const double ops = static_cast<double>(phase.ops());
  const double window_s = static_cast<double>(to - from) / 1e9;
  const double traced_rate = ratio(ops, phase.seconds);
  const double reference_rate = ratio(static_cast<double>(reference.ops()), reference.seconds);
  const auto s_of = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e9; };
  const std::vector<Metric> metrics = {
      {"setup.service_s", setup.service_s, "s", ""},
      {"setup.preload_s", setup.preload_s, "s", ""},
      {"setup.server_start_s", setup.server_start_s, "s", ""},
      {"core.calibration_s", calibration_s, "s", "(one fresh device)"},
      {"xbar.solves_setup", setup.xbar_solves, "count", ""},
      {"runtime.queue_wait_us_p50", quantile_us(t.queue_wait_ns, 0.50), "us",
       samples_note(t.queue_wait_ns.size())},
      {"runtime.queue_wait_us_p99", quantile_us(t.queue_wait_ns, 0.99), "us",
       samples_note(t.queue_wait_ns.size())},
      {"runtime.exec_us_p50", quantile_us(t.exec_ns, 0.50), "us", samples_note(t.exec_ns.size())},
      {"runtime.exec_us_p99", quantile_us(t.exec_ns, 0.99), "us", samples_note(t.exec_ns.size())},
      {"runtime.exec_self_us_mean",
       ratio(static_cast<double>(t.exec_self_ns) / 1000.0, static_cast<double>(t.exec_ns.size())),
       "us", ""},
      {"runtime.worker_busy_frac", ratio(s_of(t.foreground_busy_ns), kWorkers * window_s),
       "ratio", ""},
      {"runtime.coalesced_per_write",
       ratio(after.writes_coalesced - before.writes_coalesced, static_cast<double>(phase.writes)),
       "ratio", ""},
      {"runtime.queue_high_water", after.queue_high_water, "count", ""},
      {"runtime.scavenge_busy_s", s_of(t.scavenge_busy_ns), "s", ""},
      {"runtime.scavenged_per_op",
       ratio(after.background_encrypted - before.background_encrypted, ops), "ratio", ""},
      {"runtime.scrub_busy_s", s_of(t.scrub_busy_ns), "s", ""},
      {"core.encrypt_us_p50", quantile_us(t.encrypt_ns, 0.50), "us",
       samples_note(t.encrypt_ns.size())},
      {"core.decrypt_us_p50", quantile_us(t.decrypt_ns, 0.50), "us",
       samples_note(t.decrypt_ns.size())},
      {"core.cipher_busy_s", s_of(t.cipher_busy_ns), "s", ""},
      {"core.decrypts_per_read",
       ratio(static_cast<double>(t.decrypts_in_reads), static_cast<double>(t.shard_reads)),
       "ratio", ""},
      {"core.pulses_per_op", ratio(after.pulses - before.pulses, ops), "pulses/op", ""},
      {"core.fast_path_ratio", ratio(after.cipher_batched - before.cipher_batched, ops), "ratio",
       ""},
      {"core.journal_advances_per_op", ratio(after.journal_advances - before.journal_advances, ops),
       "advances/op", ""},
      {"ecc.verify_us_p50", quantile_us(t.ecc_ns, 0.50), "us", samples_note(t.ecc_ns.size())},
      {"ecc.verifies_per_op", ratio(static_cast<double>(t.ecc_foreground), ops), "verifies/op",
       ""},
      {"ecc.busy_s", s_of(t.ecc_busy_ns), "s", ""},
      {"ecc.share_of_exec",
       ratio(static_cast<double>(t.ecc_foreground_ns), static_cast<double>(t.foreground_busy_ns)),
       "ratio", ""},
      {"net.codec_ns_per_frame", codec_ns, "ns", ""},
      {"net.flush_busy_s", s_of(t.flush_busy_ns), "s", ""},
      {"net.flushes_per_op", ratio(static_cast<double>(t.flushes), ops), "flushes/op", ""},
      {"net.bytes_per_op",
       ratio(static_cast<double>(net_after.bytes_rx + net_after.bytes_tx -
                                 net_before.bytes_rx - net_before.bytes_tx),
             ops),
       "B/op", ""},
      {"net.server_request_us_p50",
       static_cast<double>(net_after.request_latency.p50().count()) / 1000.0, "us",
       "(coarse: power-of-two bucket edge)"},
      {"tenant.rejections", rejections, "count", ""},
      {"obs.trace_overhead_pct", 100.0 * ratio(reference_rate - traced_rate, reference_rate), "%",
       "(" + std::to_string(reference_rate) + " untraced vs " + std::to_string(traced_rate) +
           " traced ops/s)"},
      {"obs.trace_dropped", static_cast<double>(dropped), "count", ""},
      {"obs.bad_spans", static_cast<double>(t.bad_spans), "count", ""},
  };

  const std::uint64_t failed = reference.failed + reference.mismatches +
                               reference_readback.failures + phase.failed + phase.mismatches +
                               readback.failures;
  const std::uint64_t attempted =
      std::max<std::uint64_t>(1, reference.attempted() + reference_readback.blocks +
                                     phase.attempted() + readback.blocks);
  const bool correct = failed == 0 && reference.ops() > 0 && phase.ops() > 0 &&
                       dropped == 0 && t.bad_spans == 0;

  std::printf("perfbench %s: seed %llu, traced, %.1f s untraced + %.1f s traced\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), phase_seconds,
              phase_seconds);
  print_metrics(metrics);
  std::printf("  trace: %zu events, fullest thread ring %llu of %zu, %llu submits unmatched\n",
              events.size(), static_cast<unsigned long long>(t.max_thread_events),
              obs.trace_buffer_events, static_cast<unsigned long long>(t.unmatched_submits));
  // Context, not a metric: the paper's modelled SPECU latency (Table 3) at
  // its 3.2 GHz clock, beside the software cipher's measured encrypt time.
  const auto& serial = spe::core::costs_for(spe::core::Scheme::SpeSerial);
  const auto& parallel = spe::core::costs_for(spe::core::Scheme::SpeParallel);
  std::printf("  context: Table 3 models SPE-serial at %u cycles and SPE-parallel at %u "
              "(%.4f / %.4f us at 3.2 GHz); measured core.encrypt_us_p50 is %.2f us\n",
              serial.table_latency_cycles, parallel.table_latency_cycles,
              serial.table_latency_cycles / 3200.0, parallel.table_latency_cycles / 3200.0,
              quantile_us(t.encrypt_ns, 0.50));
  print_phase_problems(reference, reference_readback);
  print_phase_problems(phase, readback);
  if (dropped > 0 || t.bad_spans > 0) std::printf("  FAILED: trace is incomplete or malformed\n");
  print_result_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: spe_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--corrupt-shadow]\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "spe_perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  try {
    return args.trace ? perfbench::run_layers(*spec, args) : perfbench::run_end_to_end(*spec, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spe_perfbench: %s\n", e.what());
    return 1;
  }
}
