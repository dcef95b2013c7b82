#pragma once
// Wire-level tenant authentication token (DESIGN.md §15). Frames with the
// tenant extension carry `(tenant_id, token)` where the token is a 64-bit
// MAC binding the tenant's shared secret to the exact request it
// authenticates: the request id and opcode from the frame header. Replaying
// a captured token against another request id or opcode therefore fails
// authentication (the header is not CRC-covered; the token is what binds
// those two fields).
//
// The MAC is a keyed mix64 sponge — deliberately *not* a standards-track
// HMAC (no crypto library in the dependency budget), but with the same
// shape: secret absorbed first and last so extension of the middle words
// never yields a valid tag for a different message. Verification is
// constant-time so a byte-guessing client learns nothing from latency.

#include <cstdint>

#include "util/rng.hpp"

namespace spe::tenant {

/// Domain-separation constant ("TNT-MAC-1" as little-endian bytes) so the
/// token sponge can never collide with the key-schedule epoch digest, which
/// reuses the same mix64 core.
inline constexpr std::uint64_t kTokenDomain = 0x312D43414D2D544Eull;

/// MAC over (tenant id, request id, opcode) under `secret`.
[[nodiscard]] inline std::uint64_t make_token(std::uint64_t secret,
                                              std::uint32_t tenant_id,
                                              std::uint64_t request_id,
                                              std::uint8_t opcode) noexcept {
  std::uint64_t h = util::mix64(secret ^ kTokenDomain);
  h = util::mix64(h ^ tenant_id);
  h = util::mix64(h ^ request_id);
  h = util::mix64(h ^ opcode);
  return util::mix64(h ^ secret);
}

/// Branch-free 64-bit compare: cost independent of which bits differ.
[[nodiscard]] inline bool ct_equal(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t diff = a ^ b;
  diff |= diff >> 32;
  diff |= diff >> 16;
  diff |= diff >> 8;
  diff |= diff >> 4;
  diff |= diff >> 2;
  diff |= diff >> 1;
  return (diff & 1u) == 0;
}

}  // namespace spe::tenant
