// Service-level attack campaign (DESIGN.md §15): drives the Section 3/6
// attack simulators through the real network API as an unprivileged tenant
// against a victim tenant, plus wire-level probes the paper's threat model
// implies once the NVMM is shared: cross-tenant reads/writes, token
// forgery, quota exhaustion, admin-op escalation, cold-boot-window probes,
// and probes during an online key rotation.
//
// Topology: one in-process MemoryService + net::Server with a TenantRegistry
// of two tenants — victim (id 1, blocks [0, 1024)) and attacker (id 2,
// blocks [1024, 2048), 16-block quota). Three clients: the victim and the
// attacker (each with their own token secret) and an unauthenticated admin
// (default-domain) client.
//
// Invariants (checked by the campaign driver, campaign.hpp):
//   * zero recovered plaintext bits — no probe against the victim's range
//     ever returns payload bytes, and the stolen-array trials (decrypting
//     victim ciphertext under the attacker's key and 256 random keys)
//     reproduce zero plaintext blocks;
//   * every denial is typed — AccessDenied / QuotaExceeded / BadRequest,
//     never a hang, a crash, or an untyped error;
//   * a full key rotation completes under live victim traffic with zero
//     failed victim ops, and every victim block byte-verifies afterwards;
//   * the quota is enforced and a tokenless admin op is a BadRequest.
//
// Determinism: the client side is single-threaded and synchronous, every
// trial count is fixed, and the cipher-level analyses are pure functions of
// the seed — so two runs with the same seed produce byte-identical reports
// (the driver replays each seed in-process). Timing never enters the report.
//
// Flags: --seeds N | A..B (trial RNG + cipher analyses; default 42).
// Overrides: SPE_ATTACK_PROBES (probes per scenario),
//            SPE_ATTACK_KEYS (brute-force key trials).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign.hpp"
#include "core/attacks.hpp"
#include "core/calibration.hpp"
#include "core/spe_cipher.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "tenant/registry.hpp"
#include "tenant/token.hpp"
#include "util/rng.hpp"

namespace {

using spe::net::Client;
using spe::net::ClientConfig;
using spe::net::Frame;
using spe::net::RemoteError;
using spe::net::Status;
using spe::benchutil::appendf;
using spe::benchutil::payload_for;

constexpr std::uint32_t kVictim = 1;
constexpr std::uint32_t kAttacker = 2;
constexpr std::uint64_t kVictimSecret = 0x5EC12E7F00DD00Dull;
constexpr std::uint64_t kAttackerSecret = 0xBADC0FFEE0DDF00Dull;
constexpr std::uint64_t kVictimBase = 0;       // victim owns [0, 1024)
constexpr std::uint64_t kAttackerBase = 1024;  // attacker owns [1024, 2048)
constexpr std::uint64_t kAttackerQuota = 16;

struct ProbeTally {
  std::uint64_t probes = 0;
  std::uint64_t denied = 0;           ///< typed AccessDenied answers
  std::uint64_t quota_denied = 0;     ///< typed QuotaExceeded answers
  std::uint64_t bad_request = 0;      ///< typed BadRequest answers (tokenless admin)
  std::uint64_t unexpected = 0;       ///< wrong status / untyped error (must be 0)
  std::uint64_t recovered_bits = 0;   ///< plaintext bits leaked to the attacker
  std::uint64_t brute_hits = 0;       ///< stolen-array key trials that decrypt
  std::uint64_t victim_ok = 0;        ///< victim ops during rotation
  std::uint64_t victim_failed = 0;    ///< must be 0 (zero failed reads/writes)
  std::uint64_t verify_mismatches = 0;
};

spe::runtime::ServiceConfig campaign_config() {
  spe::runtime::ServiceConfig cfg;
  cfg.shards = 4;
  cfg.worker_threads = 2;
  cfg.queue_capacity = 256;
  cfg.scavenger_enabled = true;  // drives the rotation drain
  std::vector<spe::tenant::TenantSpec> specs(2);
  specs[0].id = kVictim;
  specs[0].name = "victim";
  specs[0].ranges = {{kVictimBase, kVictimBase + 1024}};
  specs[0].token_secret = kVictimSecret;
  specs[0].key_seed = 0x11C7E9;
  specs[1].id = kAttacker;
  specs[1].name = "attacker";
  specs[1].ranges = {{kAttackerBase, kAttackerBase + 1024}};
  specs[1].token_secret = kAttackerSecret;
  specs[1].key_seed = 0xA77AC4;
  specs[1].block_quota = kAttackerQuota;
  cfg.tenants = std::make_shared<spe::tenant::TenantRegistry>(std::move(specs));
  return cfg;
}

/// Issues one request expecting a typed denial. Counts the matching status,
/// `unexpected` otherwise; an Ok read against the victim's range would add
/// its payload bits to recovered_bits.
void expect_denied(Client& client, Frame frame, Status want, ProbeTally& r,
                   std::uint64_t* typed_counter) {
  ++r.probes;
  try {
    const Frame resp = client.call(std::move(frame));
    if (resp.status == want) {
      ++*typed_counter;
      return;
    }
    if (resp.status == Status::Ok)
      r.recovered_bits += resp.payload.size() * 8;
    ++r.unexpected;
  } catch (const spe::net::NetError&) {
    ++r.unexpected;  // a denial must be a response, not a transport failure
  }
}

/// Polls `done` every millisecond for up to 30 s; false on timeout.
template <typename Pred>
bool wait_until(Pred&& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

spe::benchutil::CampaignResult attack(std::uint64_t seed) {
  const unsigned probes = std::max(4u, spe::benchutil::env_or("SPE_ATTACK_PROBES", 16));
  const unsigned key_trials = std::max(16u, spe::benchutil::env_or("SPE_ATTACK_KEYS", 256));
  std::string report =
      spe::benchutil::banner_text("Multi-tenant attack campaign (wire-level, seeded)",
                                  "Sections 3 and 6 threat model over the v4 tenant wire");
  appendf(report, "seed=%llu probes/scenario=%u key-trials=%u\n\n",
          static_cast<unsigned long long>(seed), probes, key_trials);

  spe::runtime::ServiceConfig cfg = campaign_config();
  const std::shared_ptr<spe::tenant::TenantRegistry> registry = cfg.tenants;
  spe::runtime::MemoryService service(cfg);
  spe::net::Server server(service);
  const std::uint16_t port = server.start();

  const auto make_client = [&](std::uint32_t tenant, std::uint64_t secret) {
    ClientConfig cc;
    cc.port = port;
    Client client(cc);
    client.connect();
    if (tenant != 0 || secret != 0) client.set_tenant(tenant, secret);
    return client;
  };
  Client victim = make_client(kVictim, kVictimSecret);
  Client attacker = make_client(kAttacker, kAttackerSecret);
  Client admin = make_client(0, 0);  // unauthenticated default/admin domain
  admin.set_tenant(0, 0);            // v4 identity (admin ops need the ext)

  const unsigned block_bytes = service.block_bytes();
  ProbeTally r;
  spe::util::Xoshiro256ss rng(seed ^ 0xA77AC4C4A39A16ull);

  // --- phase 0: seed both tenants' working sets ----------------------------
  constexpr unsigned kVictimBlocks = 32;
  constexpr unsigned kAttackerSeedBlocks = 8;
  std::map<std::uint64_t, unsigned> victim_generation;
  for (unsigned i = 0; i < kVictimBlocks; ++i) {
    const std::uint64_t addr = kVictimBase + i * 17;
    victim.write_block(addr, payload_for(addr, block_bytes, 0));
    victim_generation[addr] = 0;
  }
  for (unsigned i = 0; i < kAttackerSeedBlocks; ++i) {
    const std::uint64_t addr = kAttackerBase + i;
    attacker.write_block(addr, payload_for(addr, block_bytes, 0));
  }
  appendf(report, "[seed] victim blocks=%u attacker blocks=%u block_bytes=%u\n",
          kVictimBlocks, kAttackerSeedBlocks, block_bytes);

  // --- scenario A: cross-tenant read/write probes --------------------------
  for (unsigned i = 0; i < probes; ++i) {
    const std::uint64_t addr = kVictimBase + (i * 17) % (kVictimBlocks * 17);
    expect_denied(attacker, spe::net::make_read_request(0, addr),
                  Status::AccessDenied, r, &r.denied);
    expect_denied(attacker,
                  spe::net::make_write_request(
                      0, addr, payload_for(addr, block_bytes, 9)),
                  Status::AccessDenied, r, &r.denied);
  }
  // The default/admin domain is confined to unclaimed ranges too: no data-
  // path bypass exists for any identity.
  expect_denied(admin, spe::net::make_read_request(0, kVictimBase + 17),
                Status::AccessDenied, r, &r.denied);
  appendf(report, "[cross-tenant] probes=%u denied=%llu\n", 2 * probes + 1,
          static_cast<unsigned long long>(r.denied));

  // --- scenario B: token forgery -------------------------------------------
  // Random tokens, plus structurally-correct MACs under the wrong secret.
  std::uint64_t forged_denied = 0;
  Client anon = make_client(0, 0);  // no identity: frames carry what we forge
  for (unsigned i = 0; i < probes; ++i) {
    Frame probe = spe::net::make_read_request(0, kVictimBase + 17);
    const std::uint64_t token =
        (i % 2 == 0) ? rng()
                     : spe::tenant::make_token(kAttackerSecret, kVictim, i,
                                               static_cast<std::uint8_t>(probe.opcode));
    spe::net::attach_tenant(probe, kVictim, token);
    expect_denied(anon, std::move(probe), Status::AccessDenied, r, &forged_denied);
  }
  // An unknown tenant id fails closed as well.
  {
    Frame probe = spe::net::make_read_request(0, kVictimBase + 17);
    spe::net::attach_tenant(probe, 777, rng());
    expect_denied(anon, std::move(probe), Status::AccessDenied, r, &forged_denied);
  }
  appendf(report, "[forgery] probes=%u denied=%llu\n", probes + 1,
          static_cast<unsigned long long>(forged_denied));

  // --- scenario C: quota exhaustion (wear-out via brute-force writes) ------
  // The attacker floods fresh blocks in its own range; the quota bounds how
  // much array wear it can inflict. 8 slots remain of its 16-block quota.
  std::uint64_t quota_ok = 0;
  for (unsigned i = 0; i < kAttackerQuota; ++i) {
    const std::uint64_t addr = kAttackerBase + kAttackerSeedBlocks + i;
    ++r.probes;
    try {
      attacker.write_block(addr, payload_for(addr, block_bytes, 1));
      ++quota_ok;
    } catch (const RemoteError& e) {
      if (e.status() == Status::QuotaExceeded)
        ++r.quota_denied;
      else
        ++r.unexpected;
    } catch (const spe::net::NetError&) {
      ++r.unexpected;
    }
  }
  appendf(report, "[quota] writes=%u ok=%llu quota_denied=%llu\n",
          static_cast<unsigned>(kAttackerQuota),
          static_cast<unsigned long long>(quota_ok),
          static_cast<unsigned long long>(r.quota_denied));

  // --- scenario D: admin-op escalation -------------------------------------
  // Scrub and cross-tenant rotation are denied; a tokenless rotation cannot
  // even be authorized.
  expect_denied(attacker, spe::net::make_scrub_request(0), Status::AccessDenied,
                r, &r.denied);
  expect_denied(attacker, spe::net::make_rotate_request(0, kVictim),
                Status::AccessDenied, r, &r.denied);
  {
    Client tokenless = make_client(0, 0);
    expect_denied(tokenless, spe::net::make_rotate_request(0, kVictim),
                  Status::BadRequest, r, &r.bad_request);
  }
  appendf(report, "[escalation] denied=%llu bad_request=%llu\n",
          static_cast<unsigned long long>(r.denied),
          static_cast<unsigned long long>(r.bad_request));

  // --- scenario E: stolen-array trials (known/chosen plaintext, brute force)
  // Simulates Attack 1: the attacker lifts the victim's resting ciphertext
  // and tries every key it can get — its own tenant key and `key_trials`
  // random 88-bit keys — against a known plaintext/ciphertext pair.
  {
    const auto calibration =
        spe::core::get_calibration(cfg.shard_memory.base_params);
    const spe::core::SpeCipher victim_cipher(
        registry->derive_key(kVictim, registry->key_epoch(kVictim)), calibration);
    const unsigned unit_bytes = victim_cipher.block_bytes();
    std::vector<std::uint8_t> known_plain(unit_bytes);
    for (unsigned i = 0; i < unit_bytes; ++i)
      known_plain[i] = static_cast<std::uint8_t>(i * 31 + 5);
    std::vector<std::uint8_t> victim_cipher_bytes(unit_bytes);
    victim_cipher.encrypt_bytes(known_plain, victim_cipher_bytes);

    std::uint64_t matched_bits = 0;
    const auto try_key = [&](const spe::core::SpeKey& key) {
      const spe::core::SpeCipher trial(key, calibration);
      std::vector<std::uint8_t> out(unit_bytes);
      trial.encrypt_bytes(known_plain, out);
      if (out == victim_cipher_bytes) ++r.brute_hits;
      for (unsigned i = 0; i < unit_bytes; ++i) {
        const std::uint8_t diff = out[i] ^ victim_cipher_bytes[i];
        matched_bits += 8 - static_cast<unsigned>(__builtin_popcount(diff));
      }
    };
    try_key(registry->derive_key(kAttacker, registry->key_epoch(kAttacker)));
    for (unsigned t = 0; t < key_trials; ++t)
      try_key(spe::core::SpeKey::random(rng));
    const double match_fraction =
        static_cast<double>(matched_bits) /
        static_cast<double>((key_trials + 1) * unit_bytes * 8);
    const bool chance_level = match_fraction > 0.40 && match_fraction < 0.60;
    if (!chance_level) ++r.unexpected;

    const auto kp = spe::core::known_plaintext_analysis(victim_cipher);
    const auto ins = spe::core::insertion_attack(victim_cipher, 64, seed);
    const auto bf = spe::core::brute_force_analysis();
    appendf(report, "[stolen-array] key_trials=%u exact_hits=%llu "
            "bit_match=%.4f (chance_level=%s)\n",
            key_trials + 1, static_cast<unsigned long long>(r.brute_hits),
            match_fraction, chance_level ? "yes" : "no");
    appendf(report, "[stolen-array] residual_search_log10=%.1f "
            "insertion_flip_rate=%.3f max_bias=%.3f keyspace_log10=%.1f\n",
            kp.log10_residual_search, ins.mean_flip_rate, ins.max_bit_bias,
            bf.log10_keyspace);
  }

  // --- scenario F: cold-boot window ----------------------------------------
  // Fresh victim writes leave plaintext pending (SPE-serial); the paper's
  // Attack 3 window is the scavenger's securing time. The attacker probes
  // during that window — confinement does not lapse while blocks rest
  // unencrypted.
  {
    for (unsigned i = 0; i < 8; ++i) {
      const std::uint64_t addr = kVictimBase + i * 17;
      victim.write_block(addr, payload_for(addr, block_bytes, 1));
      victim_generation[addr] = 1;
    }
    std::uint64_t window_denied = 0;
    for (unsigned i = 0; i < probes; ++i)
      expect_denied(attacker,
                    spe::net::make_read_request(0, kVictimBase + (i % 8) * 17),
                    Status::AccessDenied, r, &window_denied);
    const auto cold = spe::core::cold_boot_analysis(
        static_cast<std::uint64_t>(kVictimBlocks) * block_bytes);
    appendf(report, "[cold-boot] window_probes=%u denied=%llu "
            "spe_window_s=%.6f exposure_ratio=%.4f\n",
            probes, static_cast<unsigned long long>(window_denied),
            cold.spe_window_seconds, cold.exposure_ratio);
  }

  // --- scenario G: online key rotation under live traffic ------------------
  {
    // Every resident block re-encrypted first, so the rotation's scheduled
    // count is a pure function of the working set.
    if (!wait_until([&] { return service.encrypted_fraction() >= 1.0; }))
      throw std::runtime_error("service never quiesced before the rotation");
    // Self-service rotation is allowed (the attacker rotates its own domain).
    const Client::RotationInfo own = attacker.rotate_key(kAttacker);
    if (!wait_until([&] { return service.rotation_pending(kAttacker) == 0; }))
      ++r.unexpected;
    // Victim rotation via the admin domain, with live victim traffic and
    // attacker probes landing inside the re-encryption window.
    const Client::RotationInfo rot = admin.rotate_key(kVictim);
    std::uint64_t mid_rotation_denied = 0;
    for (unsigned i = 0; i < 2 * probes; ++i) {
      const std::uint64_t addr = kVictimBase + (i % kVictimBlocks) * 17;
      try {
        if (i % 4 == 3) {
          victim.write_block(addr, payload_for(addr, block_bytes, 2));
          victim_generation[addr] = 2;
        } else {
          const std::vector<std::uint8_t> got = victim.read_block(addr);
          if (got != payload_for(addr, block_bytes, victim_generation[addr]))
            ++r.verify_mismatches;
        }
        ++r.victim_ok;
      } catch (const std::exception&) {
        ++r.victim_failed;
      }
      if (i % 4 == 1)
        expect_denied(attacker, spe::net::make_read_request(0, addr),
                      Status::AccessDenied, r, &mid_rotation_denied);
    }
    if (!wait_until([&] { return service.rotation_pending(kVictim) == 0; }))
      ++r.unexpected;
    // Byte-verify the whole victim working set under the new key.
    for (const auto& [addr, generation] : victim_generation) {
      const std::vector<std::uint8_t> got = victim.read_block(addr);
      if (got != payload_for(addr, block_bytes, generation)) ++r.verify_mismatches;
    }
    appendf(report, "[rotation] own_epoch=%llu victim_epoch=%llu scheduled=%llu "
            "live_ops_ok=%llu failed=%llu window_denied=%llu verified=%zu\n",
            static_cast<unsigned long long>(own.epoch),
            static_cast<unsigned long long>(rot.epoch),
            static_cast<unsigned long long>(rot.scheduled),
            static_cast<unsigned long long>(r.victim_ok),
            static_cast<unsigned long long>(r.victim_failed),
            static_cast<unsigned long long>(mid_rotation_denied),
            victim_generation.size());
  }

  server.stop();
  service.stop();

  appendf(report, "\nprobes=%llu denied=%llu quota_denied=%llu bad_request=%llu\n",
          static_cast<unsigned long long>(r.probes),
          static_cast<unsigned long long>(r.denied),
          static_cast<unsigned long long>(r.quota_denied),
          static_cast<unsigned long long>(r.bad_request));
  return spe::benchutil::CampaignResult{
      report,
      {{"recovered plaintext bits", r.recovered_bits},
       {"brute-force hits", r.brute_hits},
       {"victim failed ops", r.victim_failed},
       {"verify mismatches", r.verify_mismatches},
       {"unexpected answers", r.unexpected},
       {"quota never enforced", r.quota_denied == 0 ? 1u : 0u},
       {"tokenless admin op not rejected", r.bad_request == 0 ? 1u : 0u}}};
}

}  // namespace

int main(int argc, char** argv) {
  return spe::benchutil::run_campaign(argc, argv, 42, attack);
}
