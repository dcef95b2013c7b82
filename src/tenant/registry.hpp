#pragma once
// Tenant registry (DESIGN.md §15): the control-plane source of truth for
// multi-tenant serving. Maps tenant id → TPM-sealed 88-bit key domain,
// address-range ownership, quota/QoS class, and the per-tenant counters the
// metrics exporter labels. The registry is immutable in *membership* after
// construction (tenants are provisioned before the service powers on);
// per-tenant mutable state — key epoch, resident-block count, inflight
// admission — is atomic, so the hot path never takes a lock here.
//
// Tenant 0 is the implicit default/admin domain: it owns every address no
// other tenant claims, serves wire frames that carry no tenant extension
// (single-tenant deployments never notice this layer exists), and is
// allowed to drive admin ops (key rotation) for any tenant.

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/key.hpp"
#include "tenant/token.hpp"

namespace spe::tenant {

using TenantId = std::uint32_t;

/// The implicit default/admin key domain (tokenless frames, unclaimed ranges).
inline constexpr TenantId kDefaultTenant = 0;

/// Half-open block-address range [begin, end).
struct AddrRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  [[nodiscard]] bool contains(std::uint64_t addr) const noexcept {
    return addr >= begin && addr < end;
  }
};

struct TenantSpec {
  TenantId id = 0;                 ///< must be nonzero (0 is the default domain)
  std::string name;                ///< metrics label; defaults to the id
  std::vector<AddrRange> ranges;   ///< owned block addresses (disjoint across tenants)
  std::uint64_t token_secret = 0;  ///< shared secret for wire-token MACs
  std::uint64_t key_seed = 0;      ///< per-tenant key-derivation seed
  std::uint64_t block_quota = 0;   ///< max resident blocks; 0 = unlimited
  std::uint32_t max_inflight = 0;  ///< max concurrent requests; 0 = unlimited
};

/// Per-tenant counters, exported as labeled metrics. All relaxed atomics:
/// they are statistics, not synchronization.
struct TenantCounters {
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> denied{0};            ///< cross-tenant / unauthorized ops
  std::atomic<std::uint64_t> auth_failures{0};     ///< bad or missing tokens
  std::atomic<std::uint64_t> quota_rejections{0};  ///< writes refused over quota
  std::atomic<std::uint64_t> admission_rejections{0};
  std::atomic<std::uint64_t> rotations{0};         ///< completed key rotations
  std::atomic<std::uint64_t> resident_blocks{0};   ///< quota accounting
  std::atomic<std::uint64_t> inflight{0};
};

class TenantRegistry {
public:
  /// Validates and indexes the specs. Throws std::invalid_argument on a
  /// zero/duplicate tenant id, an empty/inverted range, or ranges that
  /// overlap across tenants.
  explicit TenantRegistry(std::vector<TenantSpec> specs);

  // --- membership / ownership (immutable, lock-free) ----------------------

  [[nodiscard]] bool known(TenantId id) const noexcept {
    return id == kDefaultTenant || tenants_.contains(id);
  }
  /// Spec for a registered non-default tenant; nullptr otherwise.
  [[nodiscard]] const TenantSpec* spec(TenantId id) const;
  /// Registered non-default tenant ids, ascending.
  [[nodiscard]] std::vector<TenantId> ids() const;

  /// Which tenant owns `addr` (kDefaultTenant when unclaimed).
  [[nodiscard]] TenantId owner_of(std::uint64_t addr) const;

  // --- wire authentication ------------------------------------------------

  /// Verifies a wire tenant token (constant-time). The default tenant needs
  /// no token; unknown tenants and MAC mismatches fail and are counted.
  [[nodiscard]] bool authenticate(TenantId id, std::uint64_t token,
                                  std::uint64_t request_id,
                                  std::uint8_t opcode) const;

  // --- key domain ---------------------------------------------------------

  /// Current key epoch for `id` (0 for a never-rotated tenant or default).
  [[nodiscard]] std::uint32_t key_epoch(TenantId id) const;
  /// Bumps the epoch (a rotation has been scheduled) and returns the new
  /// value. Throws on the default tenant — its key is the device key and
  /// rotates with re-provisioning, not through this path.
  std::uint32_t advance_epoch(TenantId id);
  /// Restore-path epoch sync: raises the stored epoch to at least `epoch`.
  /// Shard checkpoints carry the authoritative per-domain epochs; the max
  /// across shards is the registry's epoch after a crash mid-rotation.
  void restore_epoch(TenantId id, std::uint32_t epoch);

  /// Deterministic per-(tenant, epoch) 88-bit key. Distinct tenants and
  /// distinct epochs yield independent keys (seeded Xoshiro over a mix64
  /// domain separation of seed/tenant/epoch).
  [[nodiscard]] core::SpeKey derive_key(TenantId id, std::uint32_t epoch) const;

  /// Synthetic TPM sealing handle for (device, tenant, epoch). Collision
  /// with real device ids (small integers) is ruled out by the high bit.
  [[nodiscard]] static std::uint64_t key_handle(std::uint64_t device_id,
                                               TenantId id,
                                               std::uint32_t epoch) noexcept;

  // --- quota / admission (atomic) -----------------------------------------

  /// Charges one resident block against the tenant's quota. False (and
  /// counted) when the quota is exhausted. Default tenant: unlimited.
  bool try_charge_block(TenantId id);
  void release_block(TenantId id);
  /// Recovery/restore recount: overwrite the resident-block figure.
  void set_resident_blocks(TenantId id, std::uint64_t count);

  /// Per-tenant concurrent-request admission. False (and counted) when the
  /// tenant's inflight cap is reached.
  bool try_acquire_inflight(TenantId id);
  void release_inflight(TenantId id);

  /// Counters for any known tenant (including the default domain).
  [[nodiscard]] TenantCounters& counters(TenantId id) const;

private:
  struct State {
    TenantSpec spec;
    std::atomic<std::uint32_t> epoch{0};
    mutable TenantCounters counters;
  };
  [[nodiscard]] const State* state(TenantId id) const;

  std::map<TenantId, State> tenants_;
  mutable TenantCounters default_counters_;
  /// range begin → (range end, owner); non-overlapping, for owner_of.
  std::map<std::uint64_t, std::pair<std::uint64_t, TenantId>> ranges_;
};

}  // namespace spe::tenant
