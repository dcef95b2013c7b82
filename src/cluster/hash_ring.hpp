#pragma once
// Consistent-hash ring mapping block addresses onto named cluster nodes
// (src/cluster). Each node contributes `weight * kVnodesPerWeight` virtual
// points hashed from (name, vnode index) with a fixed 64-bit mix, so
// placement is deterministic across processes, architectures and runs —
// two nodes that build a ring from the same topology agree on every
// owner() answer without talking to each other. Virtual nodes keep the
// per-node share near 1/N (tests pin <= 1/N + epsilon), and the classic
// consistent-hashing property holds: adding or removing one node moves
// only the arc that node gains or loses (~1/N of the keys), never
// reshuffles the rest.

#include <cstdint>
#include <string>
#include <vector>

namespace spe::cluster {

/// Virtual points contributed per unit of node weight. 64 is enough to
/// bound the max share within a few percent of fair for small clusters
/// while keeping ring rebuilds trivially cheap.
inline constexpr unsigned kVnodesPerWeight = 64;

class HashRing {
public:
  /// Deterministic 64-bit mix used for both vnode points and key lookups
  /// (splitmix64 finalizer — public so tests can pin exact placements).
  [[nodiscard]] static std::uint64_t mix64(std::uint64_t x) noexcept;
  /// FNV-1a over a string, then mixed — the vnode point for (name, index).
  [[nodiscard]] static std::uint64_t point_hash(const std::string& name,
                                                unsigned vnode) noexcept;

  /// Adds `weight * kVnodesPerWeight` points for `name`. Zero weight means
  /// the node is a ring member with no arcs (draining); adding a duplicate
  /// name replaces its previous weight.
  void add_node(const std::string& name, unsigned weight = 1);
  void remove_node(const std::string& name);

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  /// The node owning `block_addr` — the first ring point at or clockwise of
  /// mix64(addr). Throws std::logic_error on an empty ring (no weighted
  /// node): routing against a memberless cluster is a caller bug.
  [[nodiscard]] const std::string& owner(std::uint64_t block_addr) const;

  /// Order-insensitive digest of the ring's points — equal digests mean
  /// identical placement for every possible address.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  [[nodiscard]] std::size_t point_count() const noexcept { return points_.size(); }

private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t node;  ///< index into nodes_
  };
  void rebuild();

  std::vector<std::pair<std::string, unsigned>> nodes_;  ///< (name, weight)
  std::vector<Point> points_;  ///< sorted by hash
};

}  // namespace spe::cluster
