// Reliability campaign for the fault-injection subsystem (src/fault) and
// the hardened memory service (src/runtime): sweeps per-cell fault rates,
// replaying the SAME deterministic FaultPlan seed once with the full
// resilience stack (SEC-DED plane code + program-verify + retry + scrub +
// quarantine) and once with ECC disabled, then reports the silent
// (uncorrected) error rate and read availability for each point.
//
// Every source of nondeterminism is pinned: the background scavenger/scrub
// thread is off (scrubbing runs synchronously via scrub_all()), retry
// backoff is zeroed, ops are issued blocking in address order, and no
// timing data is printed — the campaign driver (campaign.hpp) replays each
// seed in-process and requires identical reports. The one invariant: the
// ECC+scrub stack never returns silently corrupted data.
//
// Each point also runs two deterministic crash probes (an interrupted
// rewrite and an interrupted decrypting read, restored from kill-point
// snapshots) and reports the journal-recovery classification — blocks
// replayed forward, rolled back and torn-quarantined — alongside the
// resilience counters.
//
// Flags: --seeds N | A..B (FaultPlan seed; default 0xFA117).
// Overrides: SPE_FAULT_BLOCKS (working set per point), SPE_FAULT_SCRUBS
//            (synchronous scrub passes between write and read),
//            SPE_METRICS_OUT (when set, the last point's metrics export is
//            written there — stdout stays byte-identical either way).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign.hpp"
#include "runtime/memory_service.hpp"
#include "util/table.hpp"

namespace {

using spe::runtime::MemoryService;
using spe::runtime::ServiceConfig;

struct FaultPoint {
  const char* label;
  double stuck_rate;     ///< per-cell, split evenly LRS/HRS
  double drift_sigma;    ///< levels per scrub tick
  double noise_rate;     ///< per-cell per sense
  double dropped_rate;   ///< per-cell per program
};

struct Outcome {
  unsigned reads_ok = 0;       ///< returned data that matched what was written
  unsigned reads_silent = 0;   ///< returned data that did NOT match (uncorrected!)
  unsigned reads_failed = 0;   ///< threw Uncorrectable/Quarantined (unavailable)
  // Crash-probe recovery classification (one interrupted write + one
  // interrupted read, restored from their kill-point snapshots).
  std::uint64_t replayed = 0;
  std::uint64_t rolled_back = 0;
  std::uint64_t torn = 0;
  std::unique_ptr<spe::obs::MetricsRegistry> stats;  ///< filled after the read pass
  std::string metrics;  ///< Prometheus export taken before shutdown
};

std::vector<std::uint8_t> payload_for(std::uint64_t block, unsigned bytes) {
  std::vector<std::uint8_t> data(bytes);
  for (unsigned i = 0; i < bytes; ++i)
    data[i] = static_cast<std::uint8_t>(block * 31 + i * 7 + 1);
  return data;
}

Outcome run_point(const FaultPoint& point, bool ecc, unsigned blocks,
                  unsigned scrub_rounds, std::uint64_t seed) {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.worker_threads = 2;
  // Determinism: no background thread; scrubbing happens synchronously.
  cfg.scavenger_enabled = false;
  cfg.scrub_enabled = false;
  cfg.retry_backoff_base = std::chrono::microseconds{0};
  cfg.ecc_enabled = ecc;
  cfg.verify_writes = ecc;
  cfg.fault_injection = true;
  cfg.fault_seed = seed;
  cfg.faults.stuck_at_lrs_rate = point.stuck_rate / 2.0;
  cfg.faults.stuck_at_hrs_rate = point.stuck_rate / 2.0;
  cfg.faults.drift_sigma = point.drift_sigma;
  cfg.faults.read_noise_rate = point.noise_rate;
  cfg.faults.dropped_pulse_rate = point.dropped_rate;

  MemoryService service(cfg);
  const unsigned block_bytes = service.block_bytes();
  Outcome out;

  for (std::uint64_t b = 0; b < blocks; ++b) {
    try {
      service.write(b, payload_for(b, block_bytes));
    } catch (const std::exception&) {
    }
  }
  // Retention period: each pass ages every resident block one tick (drift
  // accumulates, stuck cells re-pin) and repairs what the code can. With
  // ECC off scrub_all() is a no-op — the damage just sits there.
  for (unsigned r = 0; r < scrub_rounds; ++r) (void)service.scrub_all();
  for (std::uint64_t b = 0; b < blocks; ++b) {
    try {
      const std::vector<std::uint8_t> got = service.read(b);
      if (got == payload_for(b, block_bytes))
        ++out.reads_ok;
      else
        ++out.reads_silent;
    } catch (const std::exception&) {
      ++out.reads_failed;
    }
  }
  out.stats = std::make_unique<spe::obs::MetricsRegistry>();
  service.fill_metrics(*out.stats);

  // Crash probes: interrupt one rewrite mid-flight and one decrypting read
  // mid-flight, restore a fresh service from a kill-point image of each,
  // and fold the journal-recovery classification into the report. Capture
  // and restore are both deterministic, so these columns replay
  // byte-identically per seed.
  const std::uint64_t probe_addr = 0;
  const unsigned target = service.shard_of(probe_addr);
  const auto probe = [&](auto&& op) {
    const std::vector<std::string> images = service.capture_kill_points(target, [&] {
      try {
        op();
      } catch (const std::exception&) {
      }
    });
    if (images.empty()) return;  // the op faulted before touching the journal
    std::istringstream in(images[images.size() - images.size() / 4 - 1]);  // late mid-op
    MemoryService restored(cfg, in);
    const auto totals = restored.recovery_report().totals();
    out.replayed += totals.replayed_forward;
    out.rolled_back += totals.rolled_back;
    out.torn += totals.torn_quarantined + totals.crc_quarantined;
  };
  // The write leaves probe_addr encrypted even in serial mode, so the read
  // probe that follows is guaranteed a decrypt pulse sequence to interrupt.
  probe([&] { service.write(probe_addr, payload_for(probe_addr, block_bytes)); });
  probe([&] { (void)service.read(probe_addr); });

  out.metrics = service.export_metrics();
  service.stop();
  return out;
}

std::string pct(double num, double den) {
  return den == 0.0 ? "-" : spe::util::Table::fmt(100.0 * num / den, 2);
}

spe::benchutil::CampaignResult sweep(std::uint64_t seed) {
  const unsigned blocks = std::max(1u, spe::benchutil::env_or("SPE_FAULT_BLOCKS", 96));
  const unsigned scrubs = spe::benchutil::env_or("SPE_FAULT_SCRUBS", 4);
  std::string report = spe::benchutil::banner_text(
      "Fault-injection reliability campaign (" + std::to_string(blocks) +
          " blocks/point, " + std::to_string(scrubs) + " scrub passes, seed " +
          std::to_string(seed) + ")",
      "resilience acceptance sweep (not a paper figure)");

  // Per-cell rates. A 64-byte block is 256 cells in 4 SEC-DED plane groups,
  // so stuck_rate 1.6e-3 injects ~0.4 stuck cells per block — the "<= 1
  // correctable fault per block" regime of the acceptance criterion — with
  // an occasional 2-in-one-group block exercising remap/quarantine.
  const std::vector<FaultPoint> points = {
      {"clean", 0.0, 0.0, 0.0, 0.0},
      {"noise", 0.0, 0.0, 5e-4, 0.0},
      {"stuck-lo", 1e-4, 0.0, 0.0, 0.0},
      {"stuck-hi", 1.6e-3, 0.0, 0.0, 0.0},
      {"drift", 0.0, 0.12, 0.0, 0.0},
      {"mixed", 4e-4, 0.10, 2e-4, 1e-4},
  };

  spe::util::Table table({"point", "ecc", "avail%", "silent", "detected",
                          "corrected", "uncorr", "quar", "remap", "retries",
                          "scrubbed", "injected", "replay", "rollbk", "torn"});
  std::uint64_t ecc_silent_total = 0;
  unsigned noecc_corrupt_total = 0;
  std::string last_metrics;
  for (const FaultPoint& p : points) {
    for (const bool ecc : {true, false}) {
      const Outcome o = run_point(p, ecc, blocks, scrubs, seed);
      last_metrics = o.metrics;
      const auto total = [&o](const char* name) {
        return o.stats->at<spe::obs::Counter>(name).value();
      };
      const auto quarantined = static_cast<std::uint64_t>(
          o.stats->at<spe::obs::Gauge>("spe_quarantined_blocks").value());
      const double reads =
          static_cast<double>(o.reads_ok + o.reads_silent + o.reads_failed);
      if (ecc)
        ecc_silent_total += o.reads_silent;
      else
        noecc_corrupt_total += o.reads_silent;
      table.add_row({p.label, ecc ? "on" : "off",
                     pct(static_cast<double>(o.reads_ok + o.reads_silent), reads),
                     std::to_string(o.reads_silent),
                     std::to_string(total("spe_faults_detected_total")),
                     std::to_string(total("spe_faults_corrected_total")),
                     std::to_string(total("spe_faults_uncorrectable_total")),
                     std::to_string(quarantined),
                     std::to_string(total("spe_blocks_remapped_total")),
                     std::to_string(total("spe_read_retries_total") +
                                    total("spe_write_retries_total")),
                     std::to_string(total("spe_blocks_scrubbed_total")),
                     std::to_string(total("spe_injected_faults_total")),
                     std::to_string(o.replayed), std::to_string(o.rolled_back),
                     std::to_string(o.torn)});
    }
  }
  report += table.render();

  report +=
      "\nsilent = reads that returned WRONG data without any error (the\n"
      "failure mode the SEC-DED plane code must eliminate); avail% counts\n"
      "reads that returned data at all (quarantined blocks are unavailable,\n"
      "not corrupt). Identical seeds replay identical fault patterns, so the\n"
      "ecc=on and ecc=off rows of each point face the same physical faults.\n";
  spe::benchutil::appendf(report, "\nECC-off silent corruption events:   %u (expected: > 0)\n",
                          noecc_corrupt_total);
  // File-only (and a stderr note): the campaign's stdout is replay-checked,
  // and metrics include timing histograms.
  if (const char* path = std::getenv("SPE_METRICS_OUT"); path && *path) {
    std::ofstream metrics_out(path, std::ios::trunc);
    if (metrics_out) {
      metrics_out << last_metrics;
      std::fprintf(stderr, "fault_campaign: metrics written to %s\n", path);
    } else {
      std::fprintf(stderr, "fault_campaign: cannot write %s\n", path);
    }
  }
  return spe::benchutil::CampaignResult{
      report, {{"ECC+scrub silent corruption events", ecc_silent_total}}};
}

}  // namespace

int main(int argc, char** argv) {
  return spe::benchutil::run_campaign(argc, argv, 0xFA117, sweep);
}
