#include "core/specu.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace spe::core {

namespace {
constexpr std::uint64_t kEpochInit = 0x243F6A8885A308D3ull;
}  // namespace

Specu::Specu(Snvmm& memory, SpeMode mode, std::vector<unsigned> poes)
    : memory_(memory), mode_(mode), poes_(std::move(poes)) {
  calibration_ = get_calibration(memory_.device_params());
  // A restored image may carry plaintext resident blocks (SPE-serial resting
  // state at the checkpoint); rebuild the pending set so power_down and the
  // background engine keep securing them.
  for (const auto& [addr, block] : std::as_const(memory_).blocks())
    if (!block.encrypted) plaintext_.insert(addr);
}

bool Specu::power_on(const Tpm& tpm, std::uint64_t platform_measurement) {
  return power_on(tpm, platform_measurement, memory_.device_id());
}

bool Specu::power_on(const Tpm& tpm, std::uint64_t platform_measurement,
                     std::uint64_t key_handle) {
  const auto key = tpm.authenticate_and_release(key_handle, platform_measurement);
  if (!key) return false;
  ciphers_.clear();
  for (unsigned unit = 0; unit < memory_.config().units_per_block; ++unit)
    ciphers_.push_back(std::make_unique<SpeCipher>(*key, calibration_, poes_, unit));
  scratch_.resize(ciphers_.size());
  // Key-schedule epoch: fold every unit's pulse sequence into one digest so
  // journal intents recorded now are bound to exactly these pulses.
  std::uint64_t e = kEpochInit;
  for (unsigned unit = 0; unit < ciphers_.size(); ++unit)
    for (const PulseStep& step : ciphers_[unit]->schedule())
      e = util::mix64(e ^ (std::uint64_t{unit} << 48) ^
                      (std::uint64_t{step.poe_cell} << 16) ^ step.pulse_code);
  epoch_ = e;
  return true;
}

unsigned Specu::power_down() {
  if (!powered()) return 0;
  unsigned secured = 0;
  for (std::uint64_t addr : plaintext_) {
    Snvmm::Block& block = memory_.block(addr);
    begin_intent(addr, JournalOp::Encrypt, 0, pulses_per_block());
    encrypt_block_in_place(addr, block);
    ++secured;
  }
  plaintext_.clear();
  ciphers_.clear();  // volatile key storage wiped
  return secured;
}

unsigned Specu::power_loss() {
  const auto abandoned = static_cast<unsigned>(plaintext_.size());
  ciphers_.clear();
  // plaintext_ intentionally kept: those blocks really are plaintext in the
  // array now, with no powered controller to know it.
  return abandoned;
}

unsigned Specu::schedule_length() const {
  return ciphers_.empty() ? 0 : static_cast<unsigned>(ciphers_[0]->schedule().size());
}

std::uint32_t Specu::pulses_per_block() const noexcept {
  return ciphers_.empty()
             ? 0
             : static_cast<std::uint32_t>(ciphers_.size() * ciphers_[0]->schedule().size());
}

void Specu::begin_intent(std::uint64_t addr, JournalOp op, std::uint32_t progress,
                         std::uint32_t total, std::vector<std::uint8_t> pre_image) {
  JournalEntry entry;
  entry.block_addr = addr;
  entry.op = op;
  entry.epoch = epoch_;
  entry.progress = progress;
  entry.total = total;
  entry.pre_image = std::move(pre_image);
  memory_.journal().begin(std::move(entry));
}

void Specu::encrypt_block_in_place(std::uint64_t addr, Snvmm::Block& block,
                                   std::uint32_t progress) {
  const unsigned cells = calibration_->cell_count();
  const unsigned sched = schedule_length();
  obs::Span span("specu.encrypt", addr);
  span.set_a1(pulses_per_block() - progress);  // pulses this span applies
  stats_.encrypt_pulses += pulses_per_block() - progress;
  IntentJournal& journal = memory_.journal();
  for (unsigned unit = progress / sched; unit < ciphers_.size(); ++unit) {
    const unsigned first = unit == progress / sched ? progress % sched : 0;
    const std::span<std::uint8_t> levels(block.levels.data() + unit * cells, cells);
    cipher(unit).init_fast_scratch(levels, scratch_[unit]);
    for (unsigned s = first; s < sched; ++s) {
      // One PoE pulse, then the journal index — the array state between any
      // two advances is exactly what a power loss there would leave behind.
      cipher(unit).encrypt_step_fast(levels, s, scratch_[unit]);
      journal.advance(addr);
    }
    ++stats_.encrypt_ops;
    // Section 5.2: each PoE pulse ages the cells by ~2% of a full write.
    block.wear += kPulseWear * static_cast<double>(sched - first);
  }
  block.encrypted = true;
  journal.commit(addr);
}

void Specu::decrypt_block_in_place(std::uint64_t addr, Snvmm::Block& block) {
  const unsigned cells = calibration_->cell_count();
  const unsigned sched = schedule_length();
  obs::Span span("specu.decrypt", addr);
  span.set_a1(pulses_per_block());
  stats_.decrypt_pulses += pulses_per_block();
  IntentJournal& journal = memory_.journal();
  // The pre-image (the encrypted resting state) rides in the intent: an
  // interrupted decrypt is rolled back, never resumed, because the paper's
  // reverse replay has no mid-sequence resting states an ECC check could
  // distinguish from garbage.
  begin_intent(addr, JournalOp::Decrypt, 0, pulses_per_block(), block.levels);
  for (unsigned unit = 0; unit < ciphers_.size(); ++unit) {
    const std::span<std::uint8_t> levels(block.levels.data() + unit * cells, cells);
    cipher(unit).init_fast_scratch(levels, scratch_[unit]);
    for (unsigned s = sched; s-- > 0;) {
      cipher(unit).decrypt_step_fast(levels, s, scratch_[unit]);
      journal.advance(addr);
    }
    ++stats_.decrypt_ops;
    block.wear += kPulseWear * static_cast<double>(sched);
  }
  block.encrypted = false;
  journal.commit(addr);
}

void Specu::write_block(std::uint64_t block_addr, std::span<const std::uint8_t> data) {
  if (!powered()) throw std::logic_error("Specu::write_block: not powered / no key");
  if (data.size() != memory_.block_bytes())
    throw std::invalid_argument("Specu::write_block: bad block size");

  obs::Span span("specu.write", block_addr);
  Snvmm::Block& block = memory_.block(block_addr);
  const auto units = static_cast<std::uint32_t>(ciphers_.size());
  // Intent first: once the first band centre lands the old contents are
  // gone, so an interrupted write phase is torn by construction.
  begin_intent(block_addr, JournalOp::Program, 0, units);
  block.wear += 1.0;  // full write: one RESET/SET-class cycle per cell
  const unsigned cells = calibration_->cell_count();
  const unsigned unit_bytes = cells / 4;
  // Write phase: program plaintext band centres.
  for (unsigned unit = 0; unit < ciphers_.size(); ++unit) {
    const UnitLevels levels =
        cipher(unit).levels_from_bytes(data.subspan(unit * unit_bytes, unit_bytes));
    std::copy(levels.begin(), levels.end(), block.levels.begin() + unit * cells);
    memory_.journal().advance(block_addr);
  }
  block.encrypted = false;
  plaintext_.erase(block_addr);
  // Encryption phase (all transistors ON, PoE pulses applied). Re-begins the
  // intent as a resumable Encrypt: the plaintext is fully programmed now.
  begin_intent(block_addr, JournalOp::Encrypt, 0, pulses_per_block());
  encrypt_block_in_place(block_addr, block);
  ++stats_.writes;
}

std::vector<std::uint8_t> Specu::read_block(std::uint64_t block_addr) {
  if (!powered()) throw std::logic_error("Specu::read_block: not powered / no key");
  obs::Span span("specu.read", block_addr);
  Snvmm::Block& block = memory_.block(block_addr);
  if (block.encrypted) decrypt_block_in_place(block_addr, block);

  const unsigned cells = calibration_->cell_count();
  const unsigned unit_bytes = cells / 4;
  std::vector<std::uint8_t> out(memory_.block_bytes(), 0);
  for (unsigned unit = 0; unit < ciphers_.size(); ++unit) {
    const UnitLevels levels(block.levels.begin() + unit * cells,
                            block.levels.begin() + (unit + 1) * cells);
    cipher(unit).bytes_from_levels(levels,
                                   std::span(out).subspan(unit * unit_bytes, unit_bytes));
  }
  ++stats_.reads;

  if (mode_ == SpeMode::Parallel) {
    begin_intent(block_addr, JournalOp::Encrypt, 0, pulses_per_block());
    encrypt_block_in_place(block_addr, block);
  } else {
    plaintext_.insert(block_addr);
  }
  return out;
}

unsigned Specu::background_encrypt(unsigned max_blocks) {
  unsigned secured = 0;
  while (secured < max_blocks && background_encrypt_one()) ++secured;
  return secured;
}

unsigned Specu::retain_plaintext(const std::function<bool(std::uint64_t)>& owned) {
  unsigned dropped = 0;
  for (auto it = plaintext_.begin(); it != plaintext_.end();) {
    if (owned(*it)) {
      ++it;
    } else {
      it = plaintext_.erase(it);
      ++dropped;
    }
  }
  return dropped;
}

void Specu::decrypt_for_handoff(std::uint64_t block_addr) {
  if (!powered())
    throw std::logic_error("Specu::decrypt_for_handoff: not powered / no key");
  Snvmm::Block& block = memory_.block(block_addr);
  if (block.encrypted) decrypt_block_in_place(block_addr, block);
  plaintext_.erase(block_addr);
}

std::optional<std::uint64_t> Specu::background_encrypt_one() {
  if (!powered() || plaintext_.empty()) return std::nullopt;
  const std::uint64_t addr = *plaintext_.begin();
  plaintext_.erase(plaintext_.begin());
  begin_intent(addr, JournalOp::Encrypt, 0, pulses_per_block());
  encrypt_block_in_place(addr, memory_.block(addr));
  return addr;
}

void Specu::resume_encrypt(std::uint64_t block_addr, std::uint32_t progress) {
  if (!powered()) throw std::logic_error("Specu::resume_encrypt: not powered / no key");
  if (progress > pulses_per_block())
    throw std::invalid_argument("Specu::resume_encrypt: progress past schedule end");
  Snvmm::Block& block = memory_.block(block_addr);
  begin_intent(block_addr, JournalOp::Encrypt, progress, pulses_per_block());
  encrypt_block_in_place(block_addr, block, progress);
  plaintext_.erase(block_addr);
}

void Specu::rollback_decrypt(std::uint64_t block_addr,
                             std::span<const std::uint8_t> pre_image) {
  if (!powered()) throw std::logic_error("Specu::rollback_decrypt: not powered / no key");
  Snvmm::Block& block = memory_.block(block_addr);
  if (pre_image.size() != block.levels.size())
    throw std::invalid_argument("Specu::rollback_decrypt: pre-image size mismatch");
  block.levels.assign(pre_image.begin(), pre_image.end());
  block.encrypted = true;
  plaintext_.erase(block_addr);
  memory_.journal().commit(block_addr);
}

double Specu::encrypted_fraction() const {
  if (memory_.block_count() == 0) return 1.0;
  std::size_t encrypted = 0;
  for (const auto& [addr, block] : memory_.blocks()) encrypted += block.encrypted ? 1 : 0;
  return static_cast<double>(encrypted) / static_cast<double>(memory_.block_count());
}

}  // namespace spe::core
