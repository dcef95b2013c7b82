#pragma once
// Low-overhead tracing for the whole SPE stack (src/obs, "spe_obs").
//
// The Tracer is a process-wide singleton holding one lock-free ring buffer
// per participating thread. A Span is an RAII scope: its constructor takes
// a start timestamp, its destructor takes the end timestamp and appends one
// completed event to the calling thread's ring — no locks, no allocation on
// the hot path, and a single relaxed atomic load when tracing is disabled.
// Instant events (journal transitions, retries) carry one timestamp.
//
// Two clock domains:
//   * wall      monotonic steady_clock nanoseconds since enable() — what the
//               throughput bench uses.
//   * deterministic  a global logical tick counter: every timestamp is
//               tick++. With a serialised workload (one worker, blocking
//               submits, background threads off) two runs of the same seed
//               produce byte-identical JSONL — the golden-trace regression
//               substrate (tests/obs/golden_trace_test).
//
// Ring buffers drop-new when full (never overwrite): published slots are
// immutable, so collect() can read them with a single acquire load of the
// write index and stay TSan-clean against live writers. Dropped events are
// counted (spe_trace_events_dropped_total).
//
// Shard attribution: the runtime wraps shard-owned work in a ShardScope;
// spans opened anywhere below it (core, ecc, xbar) inherit the shard id
// without those layers depending on src/runtime.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace spe::obs {

struct TraceConfig {
  bool deterministic = false;  ///< logical ticks instead of wall-clock ns
  bool trace_pulses = false;   ///< per-pulse journal.advance instants (verbose)
  std::size_t buffer_events = std::size_t{1} << 16;  ///< per-thread ring capacity
};

/// One completed span (start < end) or instant event (start == end).
struct TraceEvent {
  const char* name = nullptr;  ///< static string (span taxonomy, DESIGN.md §9)
  std::uint64_t start = 0;     ///< ns since enable(), or logical tick
  std::uint64_t end = 0;
  std::uint64_t a0 = 0;        ///< primary argument (block address, …)
  std::uint64_t a1 = 0;        ///< secondary argument (pulses, corrections, …)
  std::uint32_t tid = 0;       ///< registration-order thread index
  std::int32_t shard = -1;     ///< enclosing ShardScope, -1 outside any shard
  std::uint16_t depth = 0;     ///< span nesting depth on this thread

  [[nodiscard]] bool instant() const noexcept { return start == end; }
};

class Tracer {
public:
  static Tracer& instance();

  /// Starts a fresh trace session: clears every thread buffer (logically,
  /// via a generation bump), resets the tick counter and the wall-clock
  /// epoch. Safe to call repeatedly; not safe concurrently with live spans.
  void enable(TraceConfig config = {});
  void disable();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool pulses_traced() const noexcept {
    return trace_pulses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool deterministic() const noexcept {
    return deterministic_.load(std::memory_order_relaxed);
  }

  /// Current timestamp in the active clock domain. In deterministic mode
  /// every call consumes one globally-unique tick.
  [[nodiscard]] std::uint64_t now() noexcept;

  /// Appends a completed event to the calling thread's ring (drop-new when
  /// full). `record` is what Span's destructor calls; `instant` stamps one
  /// timestamp itself.
  void record(const char* name, std::uint64_t start, std::uint64_t end,
              std::uint64_t a0, std::uint64_t a1, std::uint16_t depth) noexcept;
  void instant(const char* name, std::uint64_t a0 = 0, std::uint64_t a1 = 0) noexcept;

  /// Drains every thread buffer of the current session into one list sorted
  /// by (start, end, tid) — a total order in deterministic mode, where every
  /// timestamp is unique. Call at quiescence for a complete trace.
  [[nodiscard]] std::vector<TraceEvent> collect() const;

  /// collect() rendered one JSON object per line, fixed key order:
  /// {"name":…,"ts":…,"dur":…,"tid":…,"shard":…,"addr":…,"n":…,"depth":…}
  void write_jsonl(std::ostream& out) const;
  [[nodiscard]] std::string jsonl() const;

  /// Events dropped by full rings in the current session.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Span nesting depth of the calling thread (test hook).
  [[nodiscard]] static std::uint16_t thread_depth() noexcept;

private:
  friend class Span;
  friend class ShardScope;

  struct ThreadBuffer {
    std::vector<TraceEvent> slots;       ///< sized once per session
    std::atomic<std::size_t> size{0};    ///< release-published write index
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> generation{0};  ///< session the slots belong to
    std::uint32_t tid = 0;
    std::uint16_t depth = 0;   ///< owner-thread only (span nesting)
    std::int32_t shard = -1;   ///< owner-thread only (ShardScope)
  };

  Tracer() = default;
  [[nodiscard]] ThreadBuffer& local_buffer() noexcept;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> deterministic_{false};
  std::atomic<bool> trace_pulses_{false};
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> wall_epoch_ns_{0};
  std::size_t buffer_events_ = std::size_t{1} << 16;

  mutable std::mutex registry_mutex_;  ///< guards buffers_ (registration + collect)
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: one trace event from construction to destruction. A span
/// constructed while tracing is disabled costs one relaxed load and never
/// records. a1 is mutable so the scope can report a result (cells corrected,
/// pulses applied) discovered mid-span.
class Span {
public:
  explicit Span(const char* name, std::uint64_t a0 = 0) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_a1(std::uint64_t v) noexcept { a1_ = v; }
  void add_a1(std::uint64_t v) noexcept { a1_ += v; }
  [[nodiscard]] bool active() const noexcept { return active_; }

private:
  const char* name_;
  std::uint64_t start_ = 0;
  std::uint64_t a0_;
  std::uint64_t a1_ = 0;
  std::uint16_t depth_ = 0;
  bool active_ = false;
};

/// Declares "work on this thread now belongs to shard N" — spans opened
/// inside the scope carry the shard id. Nests (restores the previous id).
class ShardScope {
public:
  explicit ShardScope(unsigned shard) noexcept;
  ~ShardScope();

  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

  [[nodiscard]] static std::int32_t current() noexcept;

private:
  std::int32_t prev_;
};

}  // namespace spe::obs
