#pragma once
// Cluster-aware SPE client (src/cluster). Wraps one net::Client per node
// behind the same read_block / write_block surface as the single-node
// client, adding:
//
//   topology discovery   connect() fetches the epoch-stamped member list
//                        from the first reachable seed; refresh_topology()
//                        re-fetches on demand (and automatically after
//                        routing trouble).
//   consistent routing   every operation is first sent to the ring owner
//                        under the cached topology — in the steady state
//                        that is one hop, no proxying.
//   MOVED chasing        a Status::Moved response carries the owning node;
//                        the client retries there after an exponential
//                        backoff (migration commits a block within a bounded
//                        copy window, so the backoff budget outlasts any
//                        single in-flight block). The retry budget is
//                        bounded; exhaustion throws ClusterRoutingError
//                        rather than spinning on a ping-ponging address.
//   failover             a node that cannot be reached is skipped: the
//                        topology is refreshed from any other member and
//                        the operation retries against the new owner.
//   circuit breaking     one net::CircuitBreaker per endpoint. A node that
//                        keeps failing is skipped without burning deadline
//                        budget on its connect timeout; half-open probes
//                        re-admit it once it recovers.
//   deadline retries     ClusterClientConfig::op_deadline bounds the WHOLE
//                        operation (every attempt, every backoff). The
//                        remaining budget rides each frame's deadline
//                        extension so the server can shed work it cannot
//                        finish in time, and
//                        caps each attempt's socket deadline. Exhaustion
//                        surfaces typed: DeadlineExceededError for reads /
//                        never-sent writes, AmbiguousResultError for a write
//                        that reached the network without a conclusive
//                        answer.
//
// Single-owner-thread, like net::Client. Run one ClusterClient per worker.

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "cluster/topology.hpp"
#include "net/client.hpp"
#include "net/resilience.hpp"
#include "obs/metrics.hpp"

namespace spe::cluster {

/// The MOVED/failover retry budget ran out without landing on an owner.
class ClusterRoutingError : public net::NetError {
public:
  using NetError::NetError;
};

struct ClusterClientConfig {
  std::vector<NodeInfo> seeds;  ///< any member works; all are tried in order
  unsigned op_retries = 16;     ///< MOVED bounces + failovers per operation
  net::ClientConfig net;  ///< template for per-node sockets (host/port overridden)

  /// End-to-end budget for one read_block/write_block, spanning every
  /// attempt, redirect, and backoff. 0 = unbounded (legacy behaviour). When
  /// set, the remaining budget is encoded on each request frame (deadline
  /// extension) and caps each attempt's socket I/O deadline.
  std::chrono::milliseconds op_deadline{0};
  /// Backoff schedule for transient-failure retries (unreachable node,
  /// dropped connection, BUSY shed). Deterministic per (jitter_seed,
  /// endpoint, attempt) — fixed-seed chaos campaigns replay identical
  /// timing. Distinct from the fixed MOVED backoff, which paces MOVED chasing.
  net::RetryConfig retry;
  /// Per-endpoint breaker settings (see net/resilience.hpp).
  net::CircuitBreakerConfig breaker;
};

class ClusterClient {
public:
  explicit ClusterClient(ClusterClientConfig config);

  /// Fetches the topology from the first reachable seed. Throws
  /// net::ConnectError when no seed answers.
  void connect();

  [[nodiscard]] std::vector<std::uint8_t> read_block(std::uint64_t addr);
  void write_block(std::uint64_t addr, std::span<const std::uint8_t> data);

  /// Re-fetches the topology from any reachable member (seeds included) and
  /// returns the new epoch. Throws net::ConnectError when nobody answers.
  std::uint64_t refresh_topology();

  /// Pushes `proposed` to every member of the CURRENT cached topology plus
  /// every seed (idempotent on nodes already at that epoch). Returns how
  /// many nodes acknowledged. The admin plane (cluster_ctl) uses this.
  unsigned propose_topology(const ClusterTopology& proposed);

  [[nodiscard]] const ClusterTopology& topology() const noexcept {
    return topology_;
  }

  struct Stats {
    std::uint64_t moved_redirects = 0;
    std::uint64_t failovers = 0;  ///< unreachable owner, rerouted
    std::uint64_t topology_refreshes = 0;
    std::uint64_t retries = 0;        ///< transient-failure re-attempts
    std::uint64_t busy_backoffs = 0;  ///< BUSY sheds honoured (retry-after)
    std::uint64_t breaker_trips = 0;  ///< Closed/HalfOpen -> Open transitions
    std::uint64_t breaker_skips = 0;  ///< attempts failed fast on an Open breaker
    std::uint64_t deadline_exceeded = 0;   ///< ops out of budget, outcome known
    std::uint64_t ambiguous_results = 0;   ///< writes out of budget, outcome unknown
  };
  /// Snapshot (breaker_trips is summed over the per-endpoint breakers at
  /// call time; everything else accumulates inline).
  [[nodiscard]] Stats stats() const;

  /// Direct access to the pooled connection for `node` (admin plane: freeze
  /// / pull / unfreeze RPCs go to specific nodes, not ring owners).
  [[nodiscard]] net::Client& node_client(const NodeInfo& node);

private:
  [[nodiscard]] net::Frame route_call(std::uint64_t addr, net::Frame request,
                                      bool is_write);
  [[nodiscard]] bool try_fetch_topology(const NodeInfo& node);
  void drop_client(const NodeInfo& node);
  [[nodiscard]] net::CircuitBreaker& breaker_for(const NodeInfo& node);
  /// Sleeps for `pause` clipped to the operation deadline (no-op once the
  /// budget is spent).
  void bounded_sleep(std::chrono::milliseconds pause,
                     std::chrono::steady_clock::time_point deadline,
                     bool has_deadline) const;

  ClusterClientConfig config_;
  ClusterTopology topology_;
  HashRing ring_;
  std::map<std::string, net::Client> pool_;  ///< endpoint -> connection
  std::map<std::string, net::CircuitBreaker> breakers_;  ///< endpoint -> breaker
  /// Times each endpoint's pooled client was dropped. Mixed into the chaos
  /// stream id so a re-created client advances the injection schedule
  /// instead of replaying it from event 0 (a reset-on-first-frame decision
  /// would otherwise wedge that endpoint forever).
  std::map<std::string, std::uint64_t> chaos_epochs_;
  Stats stats_;
};

}  // namespace spe::cluster
