#pragma once
// Per-shard observability for the memory service: operation counters, queue
// depth high-water marks, and lock-free latency histograms for reads,
// writes, and background (scavenger) encryptions. Counters are relaxed
// atomics — the report is a statistical snapshot, not a barrier.
//
// Relaxed-consistency contract: a snapshot reads each counter with its own
// relaxed load, so counters within one snapshot are NOT mutually consistent
// (e.g. faults_detected may momentarily exceed reads_completed's view of
// the same op), and a whole-service snapshot visits shards one at a time.
// What IS guaranteed: every counter is monotonic non-decreasing, and atomic
// coherence makes each field — and therefore every aggregated total — never
// go backwards across successive snapshots (pinned by
// tests/runtime/service_stats_test.cpp). Aggregated totals saturate at
// uint64 max instead of wrapping.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/latency_histogram.hpp"

namespace spe::runtime {

/// Live (atomic) per-shard counters, written by workers / producers /
/// scavenger concurrently.
struct ShardCounters {
  std::atomic<std::uint64_t> reads_completed{0};
  std::atomic<std::uint64_t> writes_completed{0};
  std::atomic<std::uint64_t> writes_coalesced{0};  ///< futures satisfied by a merged write
  std::atomic<std::uint64_t> rejected{0};          ///< Reject-policy bounces
  std::atomic<std::uint64_t> background_encrypted{0};
  std::atomic<std::uint64_t> queue_high_water{0};

  // Resilience counters (PR 2): ECC verify outcomes, retries, quarantine.
  std::atomic<std::uint64_t> faults_detected{0};   ///< verify events that found damage
  std::atomic<std::uint64_t> faults_corrected{0};  ///< cells repaired by SEC-DED
  std::atomic<std::uint64_t> faults_uncorrectable{0};  ///< ops/scrubs abandoned
  std::atomic<std::uint64_t> blocks_quarantined{0};    ///< quarantine insertions
  std::atomic<std::uint64_t> read_retries{0};          ///< extra sense attempts
  std::atomic<std::uint64_t> write_retries{0};         ///< extra program attempts
  std::atomic<std::uint64_t> blocks_remapped{0};       ///< spare-location remaps
  std::atomic<std::uint64_t> blocks_scrubbed{0};       ///< scrub verifications run

  /// EWMA of one request's shard execution time (alpha = 1/8), maintained by
  /// the worker after every request. Load-shedding multiplies this by the
  /// queue depth to estimate a newcomer's wait; it is an estimator, not an
  /// accounting counter — the only non-monotonic field in this struct.
  std::atomic<std::uint64_t> avg_execute_ns{0};

  void note_execute_ns(std::uint64_t ns) noexcept {
    const std::uint64_t old = avg_execute_ns.load(std::memory_order_relaxed);
    avg_execute_ns.store(old == 0 ? ns : (7 * old + ns) / 8,
                         std::memory_order_relaxed);
  }

  LatencyHistogram read_latency;   ///< submit -> future fulfilled
  LatencyHistogram write_latency;  ///< submit -> future fulfilled
  LatencyHistogram background_latency;  ///< one scavenger block re-encryption

  void note_queue_depth(std::size_t depth) noexcept {
    auto d = static_cast<std::uint64_t>(depth);
    auto cur = queue_high_water.load(std::memory_order_relaxed);
    while (cur < d &&
           !queue_high_water.compare_exchange_weak(cur, d, std::memory_order_relaxed)) {
    }
  }
};

/// Plain copy of one shard's counters at a point in time.
struct ShardStatsSnapshot {
  unsigned shard = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t writes_coalesced = 0;
  std::uint64_t rejected = 0;
  std::uint64_t background_encrypted = 0;
  std::uint64_t queue_high_water = 0;
  std::uint64_t faults_detected = 0;
  std::uint64_t faults_corrected = 0;
  std::uint64_t faults_uncorrectable = 0;
  std::uint64_t blocks_quarantined = 0;
  std::uint64_t read_retries = 0;
  std::uint64_t write_retries = 0;
  std::uint64_t blocks_remapped = 0;
  std::uint64_t blocks_scrubbed = 0;
  std::uint64_t injected_faults = 0;  ///< materialised by this shard's injector
  std::size_t quarantined_now = 0;    ///< blocks currently quarantined
  std::size_t plaintext_blocks = 0;  ///< SPE-serial exposure at snapshot time
  std::size_t resident_blocks = 0;
  LatencyHistogram::Snapshot read_latency;
  LatencyHistogram::Snapshot write_latency;
  LatencyHistogram::Snapshot background_latency;
};

/// Whole-service snapshot: per-shard rows plus aggregated totals.
struct ServiceStatsSnapshot {
  std::vector<ShardStatsSnapshot> shards;
  ShardStatsSnapshot totals;  ///< shard field meaningless; histograms merged

  [[nodiscard]] std::uint64_t total_ops() const noexcept {
    return totals.reads_completed + totals.writes_completed;
  }
  /// Multi-line human-readable report (used by the bench driver and tests).
  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] ShardStatsSnapshot snapshot_counters(unsigned shard, const ShardCounters& c);
/// Sums per-shard rows into totals (queue_high_water takes the max).
/// Counter totals saturate at uint64 max rather than wrapping, preserving
/// the never-goes-backwards guarantee near overflow.
[[nodiscard]] ServiceStatsSnapshot aggregate(std::vector<ShardStatsSnapshot> shards);

}  // namespace spe::runtime
