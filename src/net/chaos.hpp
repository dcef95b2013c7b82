#pragma once
// Deterministic, seed-driven network chaos injection for the SPE serving
// stack (src/net). A ChaosPolicy is the wire-level sibling of
// fault::FaultPlan: a pure function from (seed, chaos site, event index) to
// an injection decision, holding no mutable decision state, so the same
// seed replays the identical failure schedule regardless of wall-clock
// timing — the property the chaos campaign's byte-reproducibility gate
// relies on. Only the *counters* (how many injections actually landed) are
// mutable, and they are observability, not schedule.
//
// A site names one frame event on one byte stream:
//   stream   stable identity of the connection/endpoint (client instance,
//            server connection id, or an endpoint hash — the hook owner
//            picks something reproducible),
//   event    the stream's running frame counter in that direction,
//   opcode   the frame's opcode (part of the site hash),
//   rx       direction: false = about to transmit, true = just received.
//
// Failure taxonomy (what lossy links and sick peers actually do):
//   Drop       the frame never makes it; the peer times out.
//   Delay      the frame is held for a bounded, seed-derived time.
//   Corrupt    one payload/header byte is flipped; the receiving decoder
//              must surface CrcMismatch/BadMagic, never silent corruption.
//   Truncate   only a prefix of the frame's bytes is sent; the stream
//              stalls mid-frame (decoder NeedMore) until the peer times
//              out or the connection closes.
//   Duplicate  the frame is sent twice (exercises request idempotency and
//              stale-response handling in the retry layer).
//   Reset      the connection is hard-closed right after (or instead of)
//              the frame — ECONNRESET on the peer.
//
// Hooks: net::ClientConfig::chaos and net::ServerConfig::chaos both take a
// shared ChaosPolicy. The client applies tx decisions in send_frame() and
// rx Drop/Delay at frame granularity in recv_response(); the server applies
// rx Drop in its frame dispatch and tx decisions where responses are
// encoded. Actions that would require blocking the epoll thread (server tx
// Delay on the event-loop path) degrade to None rather than stall the
// loop.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "net/wire.hpp"

namespace spe::net {

enum class ChaosAction : std::uint8_t {
  None = 0,
  Drop,
  Delay,
  Corrupt,
  Truncate,
  Duplicate,
  Reset,
};
[[nodiscard]] const char* to_string(ChaosAction action) noexcept;

/// Per-frame-event injection probabilities; all zero = clean stream.
struct ChaosRates {
  double drop = 0.0;
  double delay = 0.0;
  double corrupt = 0.0;
  double truncate = 0.0;
  double duplicate = 0.0;
  double reset = 0.0;

  [[nodiscard]] bool any() const noexcept {
    return drop > 0.0 || delay > 0.0 || corrupt > 0.0 || truncate > 0.0 ||
           duplicate > 0.0 || reset > 0.0;
  }
};

struct ChaosConfig {
  std::uint64_t seed = 0xC4A05C4A05ull;
  ChaosRates rates;  ///< the same for every opcode
  std::chrono::milliseconds delay_min{1};
  std::chrono::milliseconds delay_max{20};
};

/// One frame event on one byte stream (see file comment).
struct ChaosSite {
  std::uint64_t stream = 0;
  std::uint64_t event = 0;
  std::uint8_t opcode = 0;
  bool rx = false;
};

/// Injection counters — what actually landed, by action. Mutable state of
/// the policy; purely observational.
struct ChaosStats {
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> delayed{0};
  std::atomic<std::uint64_t> corrupted{0};
  std::atomic<std::uint64_t> truncated{0};
  std::atomic<std::uint64_t> duplicated{0};
  std::atomic<std::uint64_t> reset{0};

  void note(ChaosAction action) noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept;
  /// Deterministic one-line render (used by the chaos campaign report).
  [[nodiscard]] std::string to_string() const;
};

class ChaosPolicy {
public:
  explicit ChaosPolicy(ChaosConfig config);

  [[nodiscard]] const ChaosConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// The injection decision for this site — a pure function of
  /// (seed, site); calling it twice returns the same action and bumps no
  /// counters. Hook owners call note() once per decision they act on.
  [[nodiscard]] ChaosAction decide(const ChaosSite& site) const noexcept;

  /// Seed-derived delay in [delay_min, delay_max] for a Delay decision.
  [[nodiscard]] std::chrono::milliseconds delay_for(const ChaosSite& site) const noexcept;

  /// Byte position to flip for a Corrupt decision on a frame of `len`
  /// encoded bytes, and the nonzero XOR mask to flip it with.
  [[nodiscard]] std::size_t corrupt_offset(const ChaosSite& site,
                                           std::size_t len) const noexcept;
  [[nodiscard]] std::uint8_t corrupt_mask(const ChaosSite& site) const noexcept;

  /// Prefix length ([0, len)) to keep for a Truncate decision.
  [[nodiscard]] std::size_t truncate_len(const ChaosSite& site,
                                         std::size_t len) const noexcept;

  [[nodiscard]] ChaosStats& stats() noexcept { return stats_; }
  [[nodiscard]] const ChaosStats& stats() const noexcept { return stats_; }

private:
  [[nodiscard]] std::uint64_t site_hash(std::uint64_t tag,
                                        const ChaosSite& site) const noexcept;

  ChaosConfig config_;
  bool enabled_ = false;
  ChaosStats stats_;
};

}  // namespace spe::net
