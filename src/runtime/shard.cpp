#include "runtime/shard.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/lut.hpp"
#include "ecc/level_ecc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spe::runtime {

namespace {
/// Re-senses after an uncorrectable read before the block is quarantined.
constexpr unsigned kMaxReadRetries = 3;
/// Re-programs of a write that fails program-verify before each remap.
constexpr unsigned kMaxWriteRetries = 3;

core::SnvmmConfig shard_memory_config(unsigned id, const ServiceConfig& config) {
  core::SnvmmConfig mem = config.shard_memory;
  mem.device_seed = config.device_seed_base + id;  // distinct manufactured instance
  return mem;
}

/// PoE set for this shard's crossbar geometry. The 8x8 default geometry
/// passes {} through so Specu keeps using its built-in table (identical
/// behaviour to before the portfolio existed); any other geometry is solved
/// once via the placement portfolio and memoised process-wide.
std::vector<unsigned> shard_poes(const core::Snvmm& memory) {
  const auto& params = memory.device_params();
  if (params.rows == 8 && params.cols == 8) return {};
  return core::poes_for_crossbar(params.rows, params.cols);
}

void write_u64(std::ostream& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out.write(buf, 8);
}

std::uint64_t read_u64(std::istream& in, const char* what) {
  char buf[8];
  in.read(buf, 8);
  if (static_cast<std::size_t>(in.gcount()) != 8 || !in)
    throw std::runtime_error(std::string("shard state: truncated while reading ") + what);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  return v;
}

void add_stats(core::Specu::Stats& total, const core::Specu::Stats& s) {
  total.reads += s.reads;
  total.writes += s.writes;
  total.decrypt_ops += s.decrypt_ops;
  total.encrypt_ops += s.encrypt_ops;
  total.encrypt_pulses += s.encrypt_pulses;
  total.decrypt_pulses += s.decrypt_pulses;
}
}  // namespace

BankShard::BankShard(unsigned id, const ServiceConfig& config,
                     std::shared_ptr<const fault::FaultPlan> fault_plan)
    : id_(id),
      config_(config),
      queue_(id, config.queue_capacity, config.backpressure, counters_),
      memory_(shard_memory_config(id, config)),
      specu_(memory_, config.mode, shard_poes(memory_)) {
  if (fault_plan)
    injector_ = std::make_unique<fault::FaultInjector>(std::move(fault_plan),
                                                       memory_.device_id());
}

BankShard::BankShard(unsigned id, const ServiceConfig& config,
                     std::shared_ptr<const fault::FaultPlan> fault_plan,
                     std::istream& in)
    : BankShard(id, config, std::move(fault_plan), read_state(in)) {}

BankShard::BankShard(unsigned id, const ServiceConfig& config,
                     std::shared_ptr<const fault::FaultPlan> fault_plan,
                     RestoredState state)
    : id_(id),
      config_(config),
      queue_(id, config.queue_capacity, config.backpressure, counters_),
      memory_(std::move(state.image.nvmm)),
      specu_(memory_, config.mode, shard_poes(memory_)) {
  if (memory_.device_id() != config.device_seed_base + id)
    throw std::runtime_error(
        "shard state: device seed mismatch (checkpoint is for a different "
        "shard or fleet)");
  if (fault_plan) {
    injector_ = std::make_unique<fault::FaultInjector>(std::move(fault_plan),
                                                       memory_.device_id());
    for (const auto& [addr, epoch] : state.remap_table)
      injector_->set_remap_epoch(addr, epoch);
  }
  // Restored quarantines are resident state, not new events: bypass the
  // quarantine counter (it counts what happens in *this* process).
  quarantined_ = std::move(state.quarantined);
  restored_crc_corrupt_ = std::move(state.image.corrupt_blocks);
  scrub_cursor_ = state.scrub_cursor;
  restored_domains_ = std::move(state.domains);
}

BankShard::RestoredState BankShard::read_state(std::istream& in) {
  RestoredState state{core::load_image_checked(in), {}, {}, 0};
  const std::uint64_t quarantined = read_u64(in, "quarantine count");
  for (std::uint64_t i = 0; i < quarantined; ++i) {
    const std::uint64_t addr = read_u64(in, "quarantine address");
    const std::uint64_t reason = read_u64(in, "quarantine reason");
    if (reason != static_cast<std::uint64_t>(QuarantineReason::Uncorrectable) &&
        reason != static_cast<std::uint64_t>(QuarantineReason::Torn))
      throw std::runtime_error("shard state: unknown quarantine reason");
    state.quarantined.emplace(addr, static_cast<QuarantineReason>(reason));
  }
  const std::uint64_t remaps = read_u64(in, "remap table size");
  for (std::uint64_t i = 0; i < remaps; ++i) {
    const std::uint64_t addr = read_u64(in, "remap address");
    const std::uint64_t epoch = read_u64(in, "remap epoch");
    state.remap_table.emplace_back(addr, static_cast<std::uint32_t>(epoch));
  }
  state.scrub_cursor = read_u64(in, "scrub cursor");
  const std::uint64_t domain_count = read_u64(in, "domain record count");
  for (std::uint64_t d = 0; d < domain_count; ++d) {
    DomainRecord rec;
    rec.tenant = static_cast<tenant::TenantId>(read_u64(in, "domain tenant id"));
    rec.key_epoch = static_cast<std::uint32_t>(read_u64(in, "domain key epoch"));
    rec.old_active = read_u64(in, "domain old-epoch flag") != 0;
    rec.old_key_epoch = static_cast<std::uint32_t>(read_u64(in, "domain old epoch"));
    const std::uint64_t rotating = read_u64(in, "domain rotating count");
    rec.rotating.reserve(rotating);
    for (std::uint64_t i = 0; i < rotating; ++i)
      rec.rotating.push_back(read_u64(in, "domain rotating address"));
    state.domains.push_back(std::move(rec));
  }
  return state;
}

void BankShard::save_state_locked(std::ostream& out) const {
  core::save_image(memory_, out);
  // Quarantine map in address order so identical state yields identical
  // bytes (the crash campaign diffs blobs).
  const std::map<std::uint64_t, QuarantineReason> ordered(quarantined_.begin(),
                                                          quarantined_.end());
  write_u64(out, ordered.size());
  for (const auto& [addr, reason] : ordered) {
    write_u64(out, addr);
    write_u64(out, static_cast<std::uint64_t>(reason));
  }
  const auto remaps =
      injector_ ? injector_->remap_table() : std::map<std::uint64_t, std::uint32_t>{};
  write_u64(out, remaps.size());
  for (const auto& [addr, epoch] : remaps) {
    write_u64(out, addr);
    write_u64(out, epoch);
  }
  write_u64(out, scrub_cursor_);
  // Rotation records: per-domain key epochs plus the addresses still
  // resting under the previous key. Deterministic (both containers sorted),
  // and written even when empty so restored state round-trips byte-for-byte.
  write_u64(out, domains_.size());
  for (const auto& [tid, domain] : domains_) {
    write_u64(out, tid);
    write_u64(out, domain.key_epoch);
    write_u64(out, domain.old_specu ? 1 : 0);
    write_u64(out, domain.old_key_epoch);
    write_u64(out, domain.rotating.size());
    for (const std::uint64_t addr : domain.rotating) write_u64(out, addr);
  }
  if (!out) throw std::runtime_error("shard state: write failure");
}

void BankShard::save_state(std::ostream& out) const {
  std::lock_guard lock(state_mutex_);
  save_state_locked(out);
}

void BankShard::set_crash_hook(std::function<void(unsigned, const std::string&)> hook) {
  std::lock_guard lock(state_mutex_);
  crash_hook_ = std::move(hook);
  if (crash_hook_) {
    // The observer fires inside Specu operations, i.e. on the worker thread
    // with state_mutex_ already held — hence the _locked serialiser.
    memory_.journal().set_observer([this] {
      std::ostringstream blob;
      save_state_locked(blob);
      crash_hook_(id_, blob.str());
    });
  } else {
    memory_.journal().set_observer(nullptr);
  }
}

bool BankShard::power_on(const core::Tpm& tpm, std::uint64_t measurement) {
  std::lock_guard lock(state_mutex_);
  return specu_.power_on(tpm, measurement);
}

std::unique_ptr<core::Specu> BankShard::make_domain_specu() {
  return std::make_unique<core::Specu>(memory_, config_.mode,
                                       shard_poes(memory_));
}

bool BankShard::power_on_tenants(const core::Tpm& tpm, std::uint64_t measurement) {
  std::lock_guard lock(state_mutex_);
  const auto& registry = config_.tenants;
  if (!registry) {
    restored_domains_.clear();
    return true;
  }
  std::map<tenant::TenantId, const DomainRecord*> restored;
  for (const DomainRecord& rec : restored_domains_) restored[rec.tenant] = &rec;
  for (auto& [tid, domain] : domains_) {
    retire_specu_locked(domain.specu);
    retire_specu_locked(domain.old_specu);
  }
  domains_.clear();
  for (const tenant::TenantId tid : registry->ids()) {
    const auto rit = restored.find(tid);
    const DomainRecord* rec = rit == restored.end() ? nullptr : rit->second;
    Domain domain;
    domain.key_epoch = rec != nullptr ? rec->key_epoch : registry->key_epoch(tid);
    // Restore path: the shard blob carries the authoritative epoch (a fresh
    // registry starts every tenant at 0); raise the registry to match.
    registry->restore_epoch(tid, domain.key_epoch);
    domain.specu = make_domain_specu();
    if (!domain.specu->power_on(tpm, measurement,
                                tenant::TenantRegistry::key_handle(
                                    memory_.device_id(), tid, domain.key_epoch)))
      return false;
    // The constructor conservatively adopted EVERY plaintext resident block;
    // this controller re-encrypts only what its tenant owns.
    domain.specu->retain_plaintext(
        [&](std::uint64_t addr) { return registry->owner_of(addr) == tid; });
    if (rec != nullptr && rec->old_active) {
      domain.old_key_epoch = rec->old_key_epoch;
      domain.old_specu = make_domain_specu();
      if (!domain.old_specu->power_on(tpm, measurement,
                                      tenant::TenantRegistry::key_handle(
                                          memory_.device_id(), tid,
                                          domain.old_key_epoch)))
        return false;
      // Old-epoch controllers never own pending plaintext: a handoff decrypt
      // moves the block straight into the current controller's pending set.
      domain.old_specu->retain_plaintext([](std::uint64_t) { return false; });
      for (const std::uint64_t addr : rec->rotating) {
        // A block whose decrypt committed before the crash (now plaintext,
        // pending in the current controller) or that vanished has already
        // left the old key domain.
        if (memory_.has_block(addr) && memory_.block(addr).encrypted)
          domain.rotating.insert(addr);
      }
      finish_rotation_locked(domain);
    }
    domains_.emplace(tid, std::move(domain));
  }
  // What remains pending in the default controller is default-owned only.
  specu_.retain_plaintext([&](std::uint64_t addr) {
    return registry->owner_of(addr) == tenant::kDefaultTenant;
  });
  restored_domains_.clear();
  return true;
}

std::uint64_t BankShard::begin_rotation(tenant::TenantId tenant, std::uint32_t new_epoch,
                                        const core::Tpm& tpm, std::uint64_t measurement) {
  std::lock_guard lock(state_mutex_);
  const auto& registry = config_.tenants;
  if (!registry) throw std::logic_error("BankShard::begin_rotation: no tenant registry");
  const auto it = domains_.find(tenant);
  if (it == domains_.end())
    throw std::invalid_argument("BankShard::begin_rotation: unknown tenant domain");
  Domain& domain = it->second;
  // At most one old epoch is live per domain: a still-draining previous
  // rotation finishes synchronously before the new one begins.
  while (domain.old_specu && !domain.rotating.empty()) {
    const std::uint64_t addr = *domain.rotating.begin();
    domain.old_specu->decrypt_for_handoff(addr);
    domain.rotating.erase(addr);
    domain.specu->resume_encrypt(addr, 0);
    if (config_.ecc_enabled) refresh_checks(addr);
  }
  finish_rotation_locked(domain);

  auto fresh = make_domain_specu();
  if (!fresh->power_on(tpm, measurement,
                       tenant::TenantRegistry::key_handle(memory_.device_id(),
                                                          tenant, new_epoch)))
    throw std::runtime_error("BankShard::begin_rotation: key release refused");
  // Pending plaintext follows the NEW controller — it re-encrypts under the
  // new key; the outgoing controller keeps none.
  fresh->retain_plaintext(
      [&](std::uint64_t addr) { return registry->owner_of(addr) == tenant; });
  domain.old_specu = std::move(domain.specu);
  domain.old_specu->retain_plaintext([](std::uint64_t) { return false; });
  domain.old_key_epoch = domain.key_epoch;
  domain.specu = std::move(fresh);
  domain.key_epoch = new_epoch;

  domain.rotating.clear();
  for (const auto& [addr, block] : std::as_const(memory_).blocks()) {
    if (!block.encrypted || quarantined_.contains(addr)) continue;
    if (registry->owner_of(addr) == tenant) domain.rotating.insert(addr);
  }
  const std::uint64_t scheduled = domain.rotating.size();
  finish_rotation_locked(domain);
  return scheduled;
}

std::uint64_t BankShard::rotation_pending(tenant::TenantId tenant) const {
  std::lock_guard lock(state_mutex_);
  const auto it = domains_.find(tenant);
  return it == domains_.end() ? 0 : it->second.rotating.size();
}

std::vector<std::pair<tenant::TenantId, std::uint32_t>> BankShard::restored_epochs()
    const {
  std::lock_guard lock(state_mutex_);
  std::vector<std::pair<tenant::TenantId, std::uint32_t>> out;
  for (const DomainRecord& rec : restored_domains_) {
    out.emplace_back(rec.tenant, rec.key_epoch);
    if (rec.old_active) out.emplace_back(rec.tenant, rec.old_key_epoch);
  }
  return out;
}

BankShard::Domain* BankShard::domain_of(std::uint64_t addr) {
  if (domains_.empty() || !config_.tenants) return nullptr;
  const tenant::TenantId owner = config_.tenants->owner_of(addr);
  if (owner == tenant::kDefaultTenant) return nullptr;
  const auto it = domains_.find(owner);
  return it == domains_.end() ? nullptr : &it->second;
}

void BankShard::finish_rotation_locked(Domain& domain) {
  if (domain.old_specu && domain.rotating.empty()) {
    retire_specu_locked(domain.old_specu);
    domain.old_key_epoch = 0;
  }
}

void BankShard::retire_specu_locked(std::unique_ptr<core::Specu>& specu) {
  if (!specu) return;
  add_stats(retired_stats_, specu->stats());
  specu.reset();
}

std::optional<std::uint64_t> BankShard::rotation_drain_one_locked() {
  for (auto& [tid, domain] : domains_) {
    if (!domain.old_specu || domain.rotating.empty()) continue;
    const std::uint64_t addr = *domain.rotating.begin();
    // Decrypt under the old key (journaled: a crash rolls back to the
    // old-epoch ciphertext and the address is still scheduled), then
    // re-encrypt under the current key (journaled: a crash resumes under
    // the new epoch — the address left the rotating set in the same durable
    // snapshot, so recovery stays consistent either side).
    domain.old_specu->decrypt_for_handoff(addr);
    domain.rotating.erase(addr);
    domain.specu->resume_encrypt(addr, 0);
    finish_rotation_locked(domain);
    return addr;
  }
  return std::nullopt;
}

ShardRecovery BankShard::recover() {
  std::lock_guard lock(state_mutex_);
  if (!specu_.powered())
    throw std::logic_error("BankShard::recover: power the shard on first");
  obs::ShardScope shard_scope(id_);
  obs::Span span("shard.recover", memory_.journal().size());

  ShardRecovery rec;
  rec.shard = id_;
  rec.journal_entries = memory_.journal().size();
  std::set<std::uint64_t> touched;

  // Blocks whose image record failed its CRC: quarantine, and drop any
  // intent pointing at them (replaying pulses over corrupt levels would
  // only launder the corruption).
  for (std::uint64_t addr : restored_crc_corrupt_) {
    if (touched.insert(addr).second) ++rec.crc_quarantined;
    quarantine(addr, QuarantineReason::Uncorrectable);
    memory_.journal().commit(addr);
    for (auto& [tid, domain] : domains_) domain.rotating.erase(addr);
  }
  restored_crc_corrupt_.clear();

  const auto entries = memory_.journal().entries();  // copy: applying mutates
  for (const auto& [addr, entry] : entries) {
    touched.insert(addr);
    const bool resident = memory_.has_block(addr);
    // Multi-tenant: the intent may have been journaled by any powered
    // controller — the default domain, a tenant's current epoch, or (mid
    // rotation) a tenant's previous epoch. The schedule-epoch digest picks
    // the one whose pulses were recorded.
    core::Specu* owner = nullptr;
    Domain* owner_domain = nullptr;
    bool owner_is_old = false;
    if (entry.epoch == specu_.schedule_epoch()) {
      owner = &specu_;
    } else {
      for (auto& [tid, domain] : domains_) {
        if (domain.specu && entry.epoch == domain.specu->schedule_epoch()) {
          owner = domain.specu.get();
          owner_domain = &domain;
        } else if (domain.old_specu &&
                   entry.epoch == domain.old_specu->schedule_epoch()) {
          owner = domain.old_specu.get();
          owner_domain = &domain;
          owner_is_old = true;
        }
        if (owner != nullptr) break;
      }
    }
    const bool program_complete =
        entry.op == core::JournalOp::Program && entry.progress == entry.total;
    if (!resident || owner == nullptr ||
        (entry.op == core::JournalOp::Program && !program_complete)) {
      // Unrecoverable: the block vanished, the pulses were journaled under
      // a key schedule no powered controller holds, or the crash landed
      // mid-write-phase (old contents overwritten, new ones incomplete).
      quarantine(addr, QuarantineReason::Torn);
      memory_.journal().commit(addr);
      ++rec.torn_quarantined;
      for (auto& [tid, domain] : domains_) domain.rotating.erase(addr);
      continue;
    }
    switch (entry.op) {
      case core::JournalOp::Encrypt:
        owner->resume_encrypt(addr, entry.progress);
        ++rec.replayed_forward;
        break;
      case core::JournalOp::Program:
        // Write phase finished, encryption never started: the plaintext is
        // fully programmed, so encrypt it from pulse 0.
        owner->resume_encrypt(addr, 0);
        ++rec.replayed_forward;
        break;
      case core::JournalOp::Decrypt:
        owner->rollback_decrypt(addr, entry.pre_image);
        ++rec.rolled_back;
        break;
    }
    // Reconcile the rotation set with the block's recovered resting epoch:
    // replayed under the old key => still scheduled for the drain; replayed
    // under the tenant's current key => the rotation is done with it.
    if (owner_domain != nullptr) {
      if (owner_is_old)
        owner_domain->rotating.insert(addr);
      else
        owner_domain->rotating.erase(addr);
    }
  }
  for (auto& [tid, domain] : domains_) finish_rotation_locked(domain);

  // The SEC-DED shadows are volatile (derived state); rebuild them for the
  // post-recovery resting levels of every surviving block.
  if (config_.ecc_enabled) {
    for (const auto& [addr, block] : memory_.blocks())
      if (!quarantined_.contains(addr)) refresh_checks(addr);
  }
  const std::size_t resident = memory_.block_count();
  std::size_t touched_resident = 0;
  for (std::uint64_t addr : touched)
    if (memory_.has_block(addr)) ++touched_resident;
  rec.clean_blocks = resident - touched_resident;

  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& replayed = registry.counter(
      "spe_recovery_replayed_forward_total", "journal intents replayed forward");
  static obs::Counter& rolled = registry.counter(
      "spe_recovery_rolled_back_total", "journal intents rolled back to pre-image");
  static obs::Counter& torn = registry.counter(
      "spe_recovery_torn_quarantined_total", "blocks torn by a crash and quarantined");
  static obs::Counter& crc = registry.counter(
      "spe_recovery_crc_quarantined_total", "image records failing CRC at restore");
  replayed.add(rec.replayed_forward);
  rolled.add(rec.rolled_back);
  torn.add(rec.torn_quarantined);
  crc.add(rec.crc_quarantined);
  span.set_a1(rec.replayed_forward + rec.rolled_back + rec.torn_quarantined);
  return rec;
}

void BankShard::backoff(unsigned attempt) const {
  if (config_.retry_backoff_base.count() <= 0) return;
  // Exponential: base, 2*base, 4*base ... for attempt 1, 2, 3 ...
  const unsigned shift = attempt > 0 ? attempt - 1 : 0;
  std::this_thread::sleep_for(config_.retry_backoff_base * (1u << std::min(shift, 10u)));
}

void BankShard::refresh_checks(std::uint64_t addr) {
  checks_[addr] = ecc::level_checks(memory_.block(addr).levels);
}

void BankShard::quarantine(std::uint64_t addr, QuarantineReason reason) {
  if (quarantined_.emplace(addr, reason).second)
    counters_.blocks_quarantined.add();
}

std::optional<QuarantineReason> BankShard::quarantine_reason(std::uint64_t addr) const {
  std::lock_guard lock(state_mutex_);
  const auto it = quarantined_.find(addr);
  return it == quarantined_.end() ? std::nullopt : std::optional(it->second);
}

bool BankShard::verify_block(std::uint64_t addr, core::Snvmm::Block& block,
                             const std::vector<std::uint8_t>& checks) {
  for (unsigned attempt = 0; attempt <= kMaxReadRetries; ++attempt) {
    if (attempt > 0) {
      counters_.read_retries.add();
      obs::Tracer::instance().instant("ecc.retry", addr, attempt);
      backoff(attempt);
    }
    // Sense a copy: transient noise lives only in the read-out, so a
    // re-sense of the untouched array can succeed where the first failed.
    std::vector<std::uint8_t> sensed = block.levels;
    if (injector_ && injector_->enabled()) injector_->corrupt_sense(addr, sensed);
    const ecc::LevelDecodeResult result = ecc::verify_levels(sensed, checks);
    if (!result.ok || result.corrected_cells > 0)
      counters_.faults_detected.add();
    if (result.ok) {
      counters_.faults_corrected.add(result.corrected_cells);
      // Scrub-on-read: the verified copy is the ground truth; writing it
      // back heals drift accumulated in the array (stuck cells re-pin at
      // the next sense and are re-corrected then).
      block.levels = std::move(sensed);
      return true;
    }
  }
  return false;
}

std::vector<std::uint8_t> BankShard::read_block_guarded(std::uint64_t addr) {
  if (const auto it = quarantined_.find(addr); it != quarantined_.end()) {
    if (it->second == QuarantineReason::Torn) throw TornBlockError(id_, addr);
    throw QuarantinedBlockError(id_, addr);
  }
  if (config_.ecc_enabled && memory_.has_block(addr)) {
    const auto shadow = checks_.find(addr);
    if (shadow != checks_.end() &&
        !verify_block(addr, memory_.block(addr), shadow->second)) {
      counters_.faults_uncorrectable.add();
      quarantine(addr, QuarantineReason::Uncorrectable);
      throw UncorrectableFaultError(id_, addr);
    }
  }
  Domain* const domain = domain_of(addr);
  std::vector<std::uint8_t> data;
  if (domain != nullptr && domain->old_specu != nullptr &&
      domain->rotating.contains(addr)) {
    // Rotation window: the resting ciphertext is still old-epoch, so the
    // old-key controller serves the read. Serial mode leaves plaintext
    // behind — hand it to the current-epoch controller, which re-encrypts
    // it under the new key (the scavenger finishes the migration). Parallel
    // mode re-encrypts under the old key immediately, so the block stays
    // scheduled for the drain.
    data = domain->old_specu->read_block(addr);
    if (config_.mode == core::SpeMode::Serial) {
      domain->old_specu->drop_pending(addr);
      domain->rotating.erase(addr);
      domain->specu->adopt_pending(addr);
      finish_rotation_locked(*domain);
    }
  } else {
    data = (domain != nullptr ? *domain->specu : specu_).read_block(addr);
  }
  // The read changed the resting state (decrypted in serial mode,
  // re-encrypted in parallel mode); re-shadow it.
  if (config_.ecc_enabled) refresh_checks(addr);
  return data;
}

void BankShard::write_block_guarded(std::uint64_t addr,
                                    std::span<const std::uint8_t> data) {
  // Quota: a write that creates a block charges the owner's resident-block
  // budget before anything is programmed (the default domain never rejects,
  // it only counts).
  if (config_.tenants && !memory_.has_block(addr)) {
    const tenant::TenantId owner = config_.tenants->owner_of(addr);
    if (!config_.tenants->try_charge_block(owner))
      throw QuotaExceededError(id_, addr, owner);
  }
  Domain* const domain = domain_of(addr);
  if (domain != nullptr) {
    // The rewrite programs + encrypts under the current key; whatever epoch
    // the block rested under before is gone.
    domain->rotating.erase(addr);
    if (domain->old_specu) domain->old_specu->drop_pending(addr);
    finish_rotation_locked(*domain);
  }
  // A rewrite lifts quarantine (fault-induced or torn) by remapping the
  // block to a spare physical location (fresh fault draws under the bumped
  // epoch).
  if (quarantined_.erase(addr) > 0 && injector_) {
    injector_->remap(addr);
    counters_.blocks_remapped.add();
  }

  for (unsigned round = 0;; ++round) {
    for (unsigned attempt = 0; attempt <= kMaxWriteRetries; ++attempt) {
      if (attempt > 0) {
        counters_.write_retries.add();
        obs::Tracer::instance().instant("ecc.retry", addr, attempt);
        backoff(attempt);
      }
      (domain != nullptr ? *domain->specu : specu_).write_block(addr, data);
      core::Snvmm::Block& block = memory_.block(addr);
      if (config_.ecc_enabled) refresh_checks(addr);
      if (!injector_ || !injector_->enabled()) return;
      injector_->corrupt_program(addr, block.levels);
      if (!config_.ecc_enabled || !config_.verify_writes) return;  // faults stay latent
      // Program-verify: correcting in place models re-programming the
      // cells that missed their target.
      const ecc::LevelDecodeResult result =
          ecc::verify_levels(block.levels, checks_.at(addr));
      if (!result.ok || result.corrected_cells > 0)
        counters_.faults_detected.add();
      if (result.ok) {
        counters_.faults_corrected.add(result.corrected_cells);
        return;
      }
    }
    if (round > 0 || !injector_) break;  // one remap round, then give up
    injector_->remap(addr);
    counters_.blocks_remapped.add();
  }
  counters_.faults_uncorrectable.add();
  quarantine(addr, QuarantineReason::Uncorrectable);
  throw UncorrectableFaultError(id_, addr);
}

void BankShard::execute_batch(std::vector<Request> batch) {
  std::lock_guard lock(state_mutex_);
  obs::ShardScope shard_scope(id_);
  for (Request& req : batch) {
    const auto exec_start = std::chrono::steady_clock::now();
    // Stats are recorded before the promise is fulfilled so a client that
    // returns from .get() and immediately snapshots sees its own op counted.
    // Spans close (and record their tick) before set_value too, keeping a
    // blocking client's next submit strictly after this op's worker events.
    if (req.kind == Request::Kind::Read) {
      try {
        std::vector<std::uint8_t> data;
        {
          obs::Span span("shard.read", req.block_addr);
          data = read_block_guarded(req.block_addr);
        }
        const auto done = std::chrono::steady_clock::now();
        counters_.read_latency.record(done - req.enqueued);
        counters_.reads_completed.add();
        req.read_promise.set_value(std::move(data));
      } catch (...) {
        req.read_promise.set_exception(std::current_exception());
      }
    } else {
      try {
        {
          obs::Span span("shard.write", req.block_addr);
          write_block_guarded(req.block_addr, req.data);
        }
        const auto done = std::chrono::steady_clock::now();
        counters_.writes_completed.add(req.write_waiters.size());
        for (Request::WriteWaiter& waiter : req.write_waiters) {
          counters_.write_latency.record(done - waiter.enqueued);
          waiter.promise.set_value();
        }
      } catch (...) {
        for (Request::WriteWaiter& waiter : req.write_waiters)
          waiter.promise.set_exception(std::current_exception());
      }
    }
    counters_.note_execute_ns(static_cast<std::uint64_t>(
        (std::chrono::steady_clock::now() - exec_start).count()));
  }
}

unsigned BankShard::scavenge(unsigned max_blocks) {
  unsigned secured = 0;
  for (unsigned i = 0; i < max_blocks; ++i) {
    // One block per lock acquisition so foreground requests never wait for
    // a whole sweep (the paper's engine likewise steps between accesses).
    std::lock_guard lock(state_mutex_);
    obs::ShardScope shard_scope(id_);
    obs::Span span("shard.scavenge");
    const auto start = std::chrono::steady_clock::now();
    std::optional<std::uint64_t> addr = specu_.background_encrypt_one();
    if (!addr) {
      for (auto& [tid, domain] : domains_) {
        if (domain.specu) addr = domain.specu->background_encrypt_one();
        if (addr) break;
      }
    }
    // Nothing pending anywhere: put the cycle into a rotation drain (one
    // old-key block decrypted and re-encrypted under the new key).
    if (!addr) addr = rotation_drain_one_locked();
    if (!addr) break;
    span.set_a1(1);
    if (config_.ecc_enabled) refresh_checks(*addr);
    counters_.background_latency.record(std::chrono::steady_clock::now() - start);
    counters_.background_encrypted.add();
    ++secured;
  }
  return secured;
}

unsigned BankShard::scrub(unsigned max_blocks) {
  std::lock_guard lock(state_mutex_);
  if (!config_.ecc_enabled) return 0;
  auto& blocks = memory_.blocks();
  const std::size_t resident = blocks.size();
  if (resident == 0) return 0;
  obs::ShardScope shard_scope(id_);
  obs::Span span("shard.scrub", scrub_cursor_);

  unsigned scrubbed = 0;
  auto it = blocks.lower_bound(scrub_cursor_);
  const std::size_t visits = std::min<std::size_t>(max_blocks, resident);
  for (std::size_t v = 0; v < visits; ++v) {
    if (it == blocks.end()) it = blocks.begin();
    const std::uint64_t addr = it->first;
    core::Snvmm::Block& block = it->second;
    ++it;
    const auto shadow = checks_.find(addr);
    if (quarantined_.contains(addr) || shadow == checks_.end()) continue;
    // One scrub tick: time passes for this block (drift accumulates, stuck
    // cells re-pin), then the code repairs what it can.
    if (injector_ && injector_->enabled()) injector_->age_block(addr, block.levels);
    const ecc::LevelDecodeResult result =
        ecc::verify_levels(block.levels, shadow->second);
    counters_.blocks_scrubbed.add();
    ++scrubbed;
    if (!result.ok || result.corrected_cells > 0)
      counters_.faults_detected.add();
    if (result.ok) {
      counters_.faults_corrected.add(result.corrected_cells);
    } else {
      counters_.faults_uncorrectable.add();
      quarantine(addr, QuarantineReason::Uncorrectable);
    }
  }
  scrub_cursor_ = it == blocks.end() ? 0 : it->first;
  span.set_a1(scrubbed);
  return scrubbed;
}

BankShard::Occupancy BankShard::occupancy() const {
  std::lock_guard lock(state_mutex_);
  Occupancy occ;
  occ.resident = memory_.block_count();
  occ.plaintext = specu_.plaintext_blocks();
  for (const auto& [tid, domain] : domains_) {
    if (domain.specu) occ.plaintext += domain.specu->plaintext_blocks();
    if (domain.old_specu) occ.plaintext += domain.old_specu->plaintext_blocks();
  }
  return occ;
}

std::size_t BankShard::quarantined_blocks() const {
  std::lock_guard lock(state_mutex_);
  return quarantined_.size();
}

std::uint64_t BankShard::injected_faults() const {
  std::lock_guard lock(state_mutex_);
  return injector_ ? injector_->counts().total() : 0;
}

std::vector<std::uint64_t> BankShard::resident_blocks() const {
  std::lock_guard lock(state_mutex_);
  std::vector<std::uint64_t> addrs;
  addrs.reserve(memory_.block_count());
  for (const auto& [addr, block] : memory_.blocks()) addrs.push_back(addr);
  return addrs;
}

core::Specu::Stats BankShard::specu_stats_locked() const {
  core::Specu::Stats total = retired_stats_;
  add_stats(total, specu_.stats());
  for (const auto& [tid, domain] : domains_) {
    if (domain.specu) add_stats(total, domain.specu->stats());
    if (domain.old_specu) add_stats(total, domain.old_specu->stats());
  }
  return total;
}

core::Specu::Stats BankShard::specu_stats() const {
  std::lock_guard lock(state_mutex_);
  return specu_stats_locked();
}

}  // namespace spe::runtime
