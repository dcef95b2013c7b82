#pragma once
// Per-layer figures of a traced run, measured from outside the program: the
// spans the service already records (shard.*, specu.*, ecc.verify,
// net.flush, xbar.solve) and its svc.submit instants, matched against the
// benchmark's own log of what it submitted.

#include <cstdint>
#include <vector>

#include "obs/trace.hpp"
#include "workload.hpp"

namespace perfbench {

struct TraceFigures {
  std::uint64_t bad_spans = 0;  ///< inverted, overlapping or mis-nested spans
  std::vector<std::uint64_t> queue_wait_ns;  ///< svc.submit -> the op's shard span
  std::uint64_t unmatched_submits = 0;       ///< submits no shard span was matched to
  std::vector<std::uint64_t> exec_ns;        ///< shard.read / shard.write durations
  std::uint64_t exec_self_ns = 0;            ///< those minus their direct children
  std::uint64_t shard_reads = 0;
  std::vector<std::uint64_t> encrypt_ns;     ///< specu.encrypt
  std::vector<std::uint64_t> decrypt_ns;     ///< specu.decrypt
  std::uint64_t decrypts_in_reads = 0;       ///< specu.decrypt under shard.read
  std::uint64_t cipher_busy_ns = 0;          ///< outermost specu.* spans
  std::vector<std::uint64_t> ecc_ns;         ///< ecc.verify
  std::uint64_t ecc_busy_ns = 0;
  std::uint64_t ecc_foreground = 0;          ///< ecc.verify under shard.read/write
  std::uint64_t ecc_foreground_ns = 0;
  std::uint64_t foreground_busy_ns = 0;      ///< sum of shard.read/write durations
  std::uint64_t scavenge_busy_ns = 0;
  std::uint64_t scrub_busy_ns = 0;
  std::uint64_t flush_busy_ns = 0;
  std::uint64_t flushes = 0;
  std::uint64_t max_thread_events = 0;       ///< fullest per-thread ring
};

/// Analyses a collected trace. Spans count when they start inside the
/// measured window [from, to) (Tracer clock); nesting is checked over the
/// whole trace. `submitted` lists every op the load threads submitted in the
/// window, each stream in order.
[[nodiscard]] TraceFigures analyse_trace(const std::vector<spe::obs::TraceEvent>& events,
                                         std::uint64_t from, std::uint64_t to,
                                         const std::vector<Submission>& submitted);

/// Mean ns to encode one wire frame and decode it with a FrameDecoder, over
/// request and response frames shaped like the workload's ops.
[[nodiscard]] double codec_ns_per_frame(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench
