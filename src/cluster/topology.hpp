#pragma once
// Cluster membership for the SPE serving fleet (src/cluster). A
// ClusterTopology is an epoch-stamped list of named nodes (name, host,
// port, ring weight); every node and every cluster-aware client builds the
// same HashRing from it, so ownership of a block address is a pure
// function of (topology, address). Membership changes are modelled as a
// new topology with a higher epoch: the admin plane (cluster_ctl) migrates
// the affected address ranges first, then pushes the new epoch to every
// node; a node adopts a proposed topology iff its epoch is strictly newer
// than what it holds.
//
// The byte codecs here produce the payloads the cluster wire opcodes carry
// (TOPOLOGY requests/responses and the MOVED status payload). They are
// length-checked and bounded — a malformed payload returns false, never
// throws or reads out of bounds — because they sit on the same trust
// boundary as the frame decoder.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/hash_ring.hpp"

namespace spe::cluster {

/// Caps a serialised topology / node name so a hostile TOPOLOGY payload
/// cannot balloon allocations (the wire layer also caps frame size).
inline constexpr std::size_t kMaxNodes = 1024;
inline constexpr std::size_t kMaxNameBytes = 255;

struct NodeInfo {
  std::string name;  ///< ring identity — unique within the cluster
  std::string host;  ///< dotted IPv4 the node's spe_server binds
  std::uint16_t port = 0;
  unsigned weight = 1;  ///< ring arcs ~ weight; 0 = member without arcs

  [[nodiscard]] std::string endpoint() const {
    return host + ":" + std::to_string(port);
  }
  [[nodiscard]] bool operator==(const NodeInfo&) const = default;
};

struct ClusterTopology {
  std::uint64_t epoch = 0;
  std::vector<NodeInfo> nodes;

  [[nodiscard]] const NodeInfo* find(const std::string& name) const;
  /// Ring over every node with nonzero weight. Deterministic: same
  /// topology -> same ring on every process.
  [[nodiscard]] HashRing ring() const;
  /// Owner node of `addr` under this topology's ring.
  [[nodiscard]] const NodeInfo& owner(std::uint64_t addr) const;

  [[nodiscard]] bool operator==(const ClusterTopology&) const = default;
};

// --- byte codecs (cluster wire payloads) -----------------------------------

void append_node(std::vector<std::uint8_t>& out, const NodeInfo& node);
[[nodiscard]] std::vector<std::uint8_t> encode_node(const NodeInfo& node);
/// Consumes one node from the front of `in` (advancing it); false on
/// malformed/truncated input.
[[nodiscard]] bool consume_node(std::span<const std::uint8_t>& in, NodeInfo& out);
[[nodiscard]] bool decode_node(std::span<const std::uint8_t> in, NodeInfo& out);

[[nodiscard]] std::vector<std::uint8_t> encode_topology(const ClusterTopology& topo);
[[nodiscard]] bool decode_topology(std::span<const std::uint8_t> in,
                                   ClusterTopology& out);

/// Parses "name=host:port[*weight]" (cluster_ctl / spe_server --cluster-nodes
/// syntax); false on malformed input.
[[nodiscard]] bool parse_node_spec(const std::string& spec, NodeInfo& out);
/// Comma-separated list of node specs -> topology at `epoch`.
[[nodiscard]] bool parse_topology_spec(const std::string& spec, std::uint64_t epoch,
                                       ClusterTopology& out);

}  // namespace spe::cluster
