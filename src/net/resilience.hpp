#pragma once
// Client-side resilience primitives for the SPE serving stack: deterministic
// jittered exponential backoff, a per-endpoint circuit breaker, and the
// typed errors the retry layer surfaces when an outcome cannot be made
// certain.
//
// Retry safety model: READ and PING are always safe to retry. WRITE is
// idempotent *for the same payload* — the SPE write path programs the full
// block, so replaying an identical WRITE converges to the same state — and
// therefore also retries. What cannot be retried away is *ambiguity*: if a
// WRITE was handed to the network and the deadline expires before any
// conclusive answer, the block may hold either the old or the new bytes.
// That case surfaces as AmbiguousResultError (never a generic timeout), so
// callers can run read-back reconciliation instead of guessing.
//
// The circuit breaker is the standard three-state machine:
//
//   Closed ──(failure_threshold consecutive failures)──▶ Open
//   Open ──(open_timeout elapsed)──▶ HalfOpen
//   HalfOpen ──(any success)──▶ Closed
//   HalfOpen ──(any failure)──▶ Open            (timer restarts)
//
// allow() in Open returns false (callers fail fast with CircuitOpenError
// instead of burning deadline budget on a dead node); in HalfOpen it admits
// at most half_open_probes concurrent trial calls.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace spe::net {

/// A retryable call failed in a way that leaves the outcome unknown (e.g.
/// a write was sent, the connection died, and the deadline expired before
/// a retry could confirm either result).
class AmbiguousResultError : public std::runtime_error {
public:
  explicit AmbiguousResultError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Fail-fast rejection: the target endpoint's breaker is Open.
class CircuitOpenError : public std::runtime_error {
public:
  explicit CircuitOpenError(const std::string& what)
      : std::runtime_error(what) {}
};

/// The op's deadline expired before any attempt produced a conclusive
/// result, and no send was in flight (so the outcome is known: nothing
/// happened). In-flight ambiguity raises AmbiguousResultError instead.
class DeadlineExceededError : public std::runtime_error {
public:
  explicit DeadlineExceededError(const std::string& what)
      : std::runtime_error(what) {}
};

struct RetryConfig {
  std::chrono::milliseconds backoff_base{2};
  std::chrono::milliseconds backoff_max{200};
  /// Fraction of the computed backoff replaced by deterministic jitter in
  /// [1-jitter, 1]: backoff * (1 - jitter * u). 0 disables jitter.
  double jitter = 0.5;
  /// Seed for the jitter stream — deterministic, so a fixed-seed chaos
  /// campaign replays identical retry timing.
  std::uint64_t jitter_seed = 0x5E7241EDB0FFull;
};

/// Deterministic backoff for attempt `attempt` (0-based; attempt 0 is the
/// first retry). Exponential doubling from backoff_base, capped at
/// backoff_max, jittered downward by a hash of (jitter_seed, stream,
/// attempt) so concurrent retry loops decorrelate without shared state.
[[nodiscard]] std::chrono::milliseconds retry_backoff(const RetryConfig& config,
                                                      std::uint64_t stream,
                                                      unsigned attempt) noexcept;

struct CircuitBreakerConfig {
  unsigned failure_threshold = 5;  ///< consecutive failures that open the breaker
  std::chrono::milliseconds open_timeout{1000};
  unsigned half_open_probes = 1;  ///< concurrent trial calls admitted half-open
};

class CircuitBreaker {
public:
  enum class State : std::uint8_t { Closed = 0, Open, HalfOpen };

  using Clock = std::chrono::steady_clock;

  explicit CircuitBreaker(CircuitBreakerConfig config = {});

  /// True if a call may proceed. In HalfOpen this *claims* a probe slot;
  /// the caller must report the outcome via on_success()/on_failure().
  [[nodiscard]] bool allow();
  void on_success();
  void on_failure();

  [[nodiscard]] State state() const;
  /// Times the breaker transitioned Closed/HalfOpen → Open.
  [[nodiscard]] std::uint64_t trips() const noexcept {
    return trips_.load(std::memory_order_relaxed);
  }

private:
  void trip_locked(Clock::time_point now);

  CircuitBreakerConfig config_;
  mutable std::mutex mutex_;
  State state_ = State::Closed;
  unsigned consecutive_failures_ = 0;
  unsigned half_open_inflight_ = 0;
  Clock::time_point opened_at_{};
  std::atomic<std::uint64_t> trips_{0};
};

[[nodiscard]] const char* to_string(CircuitBreaker::State state) noexcept;

}  // namespace spe::net
