#include "cluster/hash_ring.hpp"

#include <algorithm>
#include <stdexcept>

namespace spe::cluster {

std::uint64_t HashRing::mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t HashRing::point_hash(const std::string& name, unsigned vnode) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return mix64(h ^ (std::uint64_t{vnode} << 1 | 1));
}

void HashRing::add_node(const std::string& name, unsigned weight) {
  for (auto& [n, w] : nodes_) {
    if (n == name) {
      w = weight;
      rebuild();
      return;
    }
  }
  nodes_.emplace_back(name, weight);
  rebuild();
}

void HashRing::remove_node(const std::string& name) {
  const auto it = std::find_if(nodes_.begin(), nodes_.end(),
                               [&](const auto& nw) { return nw.first == name; });
  if (it == nodes_.end()) return;
  nodes_.erase(it);
  rebuild();
}

bool HashRing::contains(const std::string& name) const {
  return std::any_of(nodes_.begin(), nodes_.end(),
                     [&](const auto& nw) { return nw.first == name; });
}

void HashRing::rebuild() {
  points_.clear();
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const auto& [name, weight] = nodes_[i];
    const unsigned vnodes = weight * kVnodesPerWeight;
    for (unsigned v = 0; v < vnodes; ++v)
      points_.push_back({point_hash(name, v), i});
  }
  std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
    // Tie-break on node index so a (vanishingly unlikely) hash collision
    // still yields one deterministic order.
    return a.hash != b.hash ? a.hash < b.hash : a.node < b.node;
  });
}

const std::string& HashRing::owner(std::uint64_t block_addr) const {
  if (points_.empty())
    throw std::logic_error("spe::cluster: owner() on an empty hash ring");
  const std::uint64_t h = mix64(block_addr);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, std::uint64_t key) { return p.hash < key; });
  if (it == points_.end()) it = points_.begin();  // wrap: clockwise past 2^64
  return nodes_[it->node].first;
}

std::uint64_t HashRing::fingerprint() const noexcept {
  // XOR of per-point digests is order-insensitive, so two rings built by
  // different insertion orders but with identical points agree.
  std::uint64_t fp = 0;
  for (const Point& p : points_)
    fp ^= mix64(p.hash ^ point_hash(nodes_[p.node].first, 0));
  return fp;
}

}  // namespace spe::cluster
