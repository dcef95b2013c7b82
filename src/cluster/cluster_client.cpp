#include "cluster/cluster_client.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace spe::cluster {

using net::Frame;
using net::Opcode;
using net::Status;

namespace {

/// First retry delay after a MOVED bounce, doubled per bounce up to the max.
/// Over op_retries bounces (~16 doublings of 5 ms capped at 250 ms) this
/// comfortably outlasts one block's freeze->commit window.
constexpr std::chrono::milliseconds kMovedBackoff{5};
constexpr std::chrono::milliseconds kMovedBackoffMax{250};

/// Stable per-endpoint stream id (FNV-1a) for the deterministic jitter and
/// chaos streams — reproducible across runs, unlike pointer identity.
std::uint64_t endpoint_stream(const std::string& endpoint) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : endpoint) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

ClusterClient::ClusterClient(ClusterClientConfig config)
    : config_(std::move(config)) {
  if (config_.seeds.empty())
    throw std::invalid_argument("spe::cluster: ClusterClient needs >= 1 seed");
}

net::Client& ClusterClient::node_client(const NodeInfo& node) {
  const std::string key = node.endpoint();
  auto it = pool_.find(key);
  if (it == pool_.end()) {
    net::ClientConfig cfg = config_.net;
    cfg.host = node.host;
    cfg.port = node.port;
    // A reproducible chaos stream per endpoint, advanced by the drop epoch:
    // deterministic across runs, but a re-created client does not replay
    // the schedule its predecessor already consumed.
    if (cfg.chaos && cfg.chaos_stream == 0)
      cfg.chaos_stream =
          endpoint_stream(key) ^ (chaos_epochs_[key] * 0x9E3779B97F4A7C15ull);
    it = pool_.emplace(key, net::Client(std::move(cfg))).first;
  }
  it->second.connect();  // no-op when already connected
  return it->second;
}

net::CircuitBreaker& ClusterClient::breaker_for(const NodeInfo& node) {
  return breakers_.try_emplace(node.endpoint(), config_.breaker).first->second;
}

void ClusterClient::bounded_sleep(std::chrono::milliseconds pause,
                                  std::chrono::steady_clock::time_point deadline,
                                  bool has_deadline) const {
  if (pause.count() <= 0) return;
  if (has_deadline) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return;
    pause = std::min(pause, left);
  }
  std::this_thread::sleep_for(pause);
}

void ClusterClient::drop_client(const NodeInfo& node) {
  if (pool_.erase(node.endpoint()) > 0) ++chaos_epochs_[node.endpoint()];
}

bool ClusterClient::try_fetch_topology(const NodeInfo& node) {
  try {
    net::Client& client = node_client(node);
    const Frame reply = client.call(net::make_topology_request(0));
    if (reply.status != Status::Ok) return false;
    ClusterTopology fetched;
    if (!decode_topology(reply.payload, fetched)) return false;
    topology_ = std::move(fetched);
    ring_ = topology_.ring();
    ++stats_.topology_refreshes;
    return true;
  } catch (const net::NetError&) {
    drop_client(node);
    return false;
  }
}

void ClusterClient::connect() {
  for (const NodeInfo& seed : config_.seeds)
    if (try_fetch_topology(seed)) return;
  throw net::ConnectError("spe::cluster: no seed answered a topology fetch");
}

std::uint64_t ClusterClient::refresh_topology() {
  // Current members first (the freshest view lives there), then the seeds.
  std::vector<NodeInfo> candidates = topology_.nodes;
  for (const NodeInfo& seed : config_.seeds) {
    const auto same = [&seed](const NodeInfo& n) {
      return n.endpoint() == seed.endpoint();
    };
    if (std::none_of(candidates.begin(), candidates.end(), same))
      candidates.push_back(seed);
  }
  for (const NodeInfo& node : candidates)
    if (try_fetch_topology(node)) return topology_.epoch;
  throw net::ConnectError("spe::cluster: no member answered a topology fetch");
}

unsigned ClusterClient::propose_topology(const ClusterTopology& proposed) {
  const std::vector<std::uint8_t> bytes = encode_topology(proposed);
  std::vector<NodeInfo> targets = topology_.nodes;
  for (const NodeInfo& node : proposed.nodes) {
    const auto same = [&node](const NodeInfo& n) {
      return n.endpoint() == node.endpoint();
    };
    if (std::none_of(targets.begin(), targets.end(), same))
      targets.push_back(node);
  }
  unsigned acked = 0;
  for (const NodeInfo& node : targets) {
    try {
      net::Client& client = node_client(node);
      const Frame reply = client.call(net::make_topology_request(0, bytes));
      if (reply.status == Status::Ok) ++acked;
    } catch (const net::NetError&) {
      drop_client(node);
    }
  }
  if (acked > 0) {
    topology_ = proposed;
    ring_ = topology_.ring();
  }
  return acked;
}

Frame ClusterClient::route_call(std::uint64_t addr, Frame request, bool is_write) {
  if (topology_.nodes.empty()) connect();
  using Clock = std::chrono::steady_clock;
  const bool has_deadline = config_.op_deadline.count() > 0;
  const Clock::time_point op_deadline = Clock::now() + config_.op_deadline;
  const auto remaining = [&]() -> std::chrono::milliseconds {
    if (!has_deadline) return std::chrono::milliseconds{0};
    return std::chrono::duration_cast<std::chrono::milliseconds>(op_deadline -
                                                                 Clock::now());
  };
  NodeInfo target = topology_.owner(addr);
  bool directed = false;   // true: `target` came from a MOVED payload
  bool ambiguous = false;  // a write may have reached a node inconclusively
  unsigned transient = 0;  // transient-failure index into the backoff stream
  std::chrono::milliseconds backoff = kMovedBackoff;
  // Out of budget: reads (and writes that never reached the wire) failed
  // cleanly — nothing happened. A write whose send died mid-flight may have
  // executed anyway; surface that as ambiguity, never a generic timeout.
  const auto give_up = [&]() {
    ++stats_.deadline_exceeded;
    if (is_write && ambiguous) {
      ++stats_.ambiguous_results;
      throw net::AmbiguousResultError(
          "spe::cluster: write outcome unknown for addr " + std::to_string(addr) +
          " (deadline expired with an attempt in flight; read back to reconcile)");
    }
    throw net::DeadlineExceededError("spe::cluster: op deadline exceeded for addr " +
                                     std::to_string(addr));
  };
  for (unsigned attempt = 0; attempt <= config_.op_retries; ++attempt) {
    if (has_deadline && remaining().count() <= 0) give_up();
    net::CircuitBreaker& breaker = breaker_for(target);
    if (!breaker.allow()) {
      // Fail fast instead of burning budget on a node that keeps failing. A
      // refreshed topology may name a different owner; the pause also lets
      // the breaker's open_timeout tick toward a half-open probe.
      ++stats_.breaker_skips;
      bounded_sleep(net::retry_backoff(config_.retry,
                                       endpoint_stream(target.endpoint()), transient++),
                    op_deadline, has_deadline);
      try {
        refresh_topology();
      } catch (const net::NetError&) {
        if (!has_deadline) throw;  // whole cluster gone and no budget to wait out
      }
      target = topology_.owner(addr);
      directed = false;
      continue;
    }
    Frame reply;
    try {
      const std::chrono::milliseconds budget = remaining();
      request.deadline_ms =
          has_deadline ? static_cast<std::uint64_t>(budget.count()) : 0;
      net::Client& client = node_client(target);
      if (is_write) ambiguous = true;  // from here the payload may be in flight
      reply = client.call(request, has_deadline ? budget : std::chrono::milliseconds{0});
      breaker.on_success();
    } catch (const net::NetError&) {
      // Owner unreachable (crashed node, dropped/reset connection): learn
      // the membership that exists now and re-route after a deterministic
      // jittered backoff.
      breaker.on_failure();
      drop_client(target);
      ++stats_.failovers;
      ++stats_.retries;
      bounded_sleep(net::retry_backoff(config_.retry,
                                       endpoint_stream(target.endpoint()), transient++),
                    op_deadline, has_deadline);
      try {
        refresh_topology();
      } catch (const net::NetError&) {
        if (!has_deadline) throw;
      }
      target = topology_.owner(addr);
      directed = false;
      continue;
    }
    if (reply.status == Status::Busy) {
      // Deadline-aware shed: the node's queue wait exceeds our remaining
      // budget. Honour the retry-after hint (clipped so one wild estimate
      // cannot eat the whole budget) and try again — queue depth decays fast.
      ++stats_.busy_backoffs;
      ++stats_.retries;
      std::uint64_t retry_after_ms = 0;
      net::WireErrorCode err{};
      (void)net::parse_busy_response(reply, retry_after_ms, err);
      auto pause = std::chrono::milliseconds(std::max<std::uint64_t>(retry_after_ms, 1));
      pause = std::min(pause, config_.retry.backoff_max);
      bounded_sleep(pause, op_deadline, has_deadline);
      continue;
    }
    if (reply.status != Status::Moved) return reply;
    // Bounced: the payload names where the address lives. During an
    // in-flight migration source and destination can both bounce until the
    // copy commits — back off so the budget spans the copy window.
    ++stats_.moved_redirects;
    NodeInfo owner;
    if (!decode_node(reply.payload, owner))
      throw net::ProtocolError("spe::cluster: malformed MOVED payload");
    if (directed && owner.endpoint() == target.endpoint()) {
      // Self-referential bounce would spin; treat as transient and refresh.
      try {
        refresh_topology();
      } catch (const net::NetError&) {
        if (!has_deadline) throw;
      }
    }
    bounded_sleep(backoff, op_deadline, has_deadline);
    backoff = std::min(backoff * 2, kMovedBackoffMax);
    target = std::move(owner);
    directed = true;
  }
  throw ClusterRoutingError(
      "spe::cluster: retry budget exhausted chasing MOVED for addr " +
      std::to_string(addr));
}

std::vector<std::uint8_t> ClusterClient::read_block(std::uint64_t addr) {
  const Frame reply = route_call(addr, net::make_read_request(0, addr), false);
  if (reply.status != Status::Ok)
    throw net::RemoteError(reply.status,
                           std::string(reply.payload.begin(), reply.payload.end()));
  return reply.payload;
}

void ClusterClient::write_block(std::uint64_t addr,
                                std::span<const std::uint8_t> data) {
  const Frame reply = route_call(addr, net::make_write_request(0, addr, data), true);
  if (reply.status != Status::Ok)
    throw net::RemoteError(reply.status,
                           std::string(reply.payload.begin(), reply.payload.end()));
}

ClusterClient::Stats ClusterClient::stats() const {
  Stats out = stats_;
  out.breaker_trips = 0;
  for (const auto& [endpoint, breaker] : breakers_) out.breaker_trips += breaker.trips();
  return out;
}

}  // namespace spe::cluster
