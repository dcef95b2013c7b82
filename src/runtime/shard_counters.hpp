#pragma once
// Per-shard operator counters, recorded at their source: workers, producers
// and the scavenger record into instruments this shard alone owns (a
// counter add is one relaxed RMW). MemoryService::fill_metrics reads each instrument once
// per export (DESIGN.md §9).
//
// Relaxed-consistency contract: instruments are read one at a time, so two
// counters of one export are NOT mutually consistent (faults_detected may
// run ahead of reads_completed's view of the same op). What IS guaranteed:
// every exported total is monotonic across successive exports, equals the
// sum of its {shard="s"} series, and saturates at uint64 max instead of
// wrapping (pinned by tests/runtime/service_stats_test.cpp).

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"

namespace spe::runtime {

struct ShardCounters {
  obs::Counter reads_completed;
  obs::Counter writes_completed;
  obs::Counter writes_coalesced;  ///< futures satisfied by a merged write
  obs::Counter rejected;          ///< Reject-policy bounces
  obs::Counter background_encrypted;

  // Resilience: ECC verify outcomes, retries, quarantine.
  obs::Counter faults_detected;       ///< verify events that found damage
  obs::Counter faults_corrected;      ///< cells repaired by SEC-DED
  obs::Counter faults_uncorrectable;  ///< ops/scrubs abandoned
  obs::Counter blocks_quarantined;    ///< quarantine insertions
  obs::Counter read_retries;          ///< extra sense attempts
  obs::Counter write_retries;         ///< extra program attempts
  obs::Counter blocks_remapped;       ///< spare-location remaps
  obs::Counter blocks_scrubbed;       ///< scrub verifications run

  obs::Histogram read_latency;        ///< submit -> future fulfilled
  obs::Histogram write_latency;       ///< submit -> future fulfilled
  obs::Histogram background_latency;  ///< one scavenger block re-encryption

  /// Deepest queue this shard has seen (a CAS-max, not a sum).
  std::atomic<std::uint64_t> queue_high_water{0};

  /// EWMA of one request's shard execution time (alpha = 1/8), maintained by
  /// the worker after every request. Load-shedding multiplies this by the
  /// queue depth to estimate a newcomer's wait; it is an estimator, not an
  /// accounting counter, and is not exported.
  std::atomic<std::uint64_t> avg_execute_ns{0};

  void note_execute_ns(std::uint64_t ns) noexcept {
    const std::uint64_t old = avg_execute_ns.load(std::memory_order_relaxed);
    avg_execute_ns.store(old == 0 ? ns : (7 * old + ns) / 8,
                         std::memory_order_relaxed);
  }

  void note_queue_depth(std::size_t depth) noexcept {
    auto d = static_cast<std::uint64_t>(depth);
    auto cur = queue_high_water.load(std::memory_order_relaxed);
    while (cur < d &&
           !queue_high_water.compare_exchange_weak(cur, d, std::memory_order_relaxed)) {
    }
  }
};

}  // namespace spe::runtime
