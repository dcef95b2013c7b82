// Oracle suite pinning Specu — which runs every block through SpeCipher's
// fast in-place steps — to a test-local reference built only from
// SpeCipher's public scalar calls: levels_from_bytes, encrypt_step,
// decrypt_step and bytes_from_levels. Every observable must match the
// reference: ciphertext levels, read bytes, wear, stats, the serial-mode
// pending set, and the array + journal state at every kill point,
// including on fault-corrupted blocks and when an encryption resumes from
// any mid-schedule progress index. DESIGN.md §12 explains why the scalar
// steps stay the reference.
#include "core/specu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace spe::core {
namespace {

constexpr std::uint64_t kMeasurement = 0xB007C0DE;

/// One powered device instance under test.
struct Rig {
  Rig(std::uint64_t device_seed, SpeKey key, SpeMode mode) {
    SnvmmConfig cfg = Snvmm::default_config();
    cfg.device_seed = device_seed;
    memory = std::make_unique<Snvmm>(cfg);
    tpm.provision(memory->device_id(), kMeasurement, key);
    specu = std::make_unique<Specu>(*memory, mode);
    EXPECT_TRUE(specu->power_on(tpm, kMeasurement));
  }

  void rotate_key(SpeKey key) {
    tpm.provision(memory->device_id(), kMeasurement, key);
    EXPECT_TRUE(specu->power_on(tpm, kMeasurement));
  }

  std::unique_ptr<Snvmm> memory;
  Tpm tpm;
  std::unique_ptr<Specu> specu;
};

/// The array state a power loss would freeze at one journal kill point.
struct KillPointState {
  std::map<std::uint64_t, std::vector<std::uint8_t>> levels;  ///< addr -> levels
  std::size_t journal_size = 0;
  std::uint64_t intent_addr = 0;
  JournalOp op = JournalOp::Encrypt;
  std::uint32_t progress = 0;
  std::uint32_t total = 0;
  std::uint64_t epoch = 0;
  std::vector<std::uint8_t> pre_image;

  bool operator==(const KillPointState&) const = default;
};

/// Specu's documented read/write semantics re-derived from SpeCipher's
/// scalar steps, over its own model of the array, the intent journal, the
/// stats and the pending set. One pulse at a time on a copied unit vector,
/// exactly as the paper describes the SPECU sequence.
class Reference {
public:
  Reference(const Snvmm& memory, const SpeKey& key, SpeMode mode, std::uint64_t epoch)
      : memory_(memory), mode_(mode) {
    rekey(key, epoch);
  }

  void rekey(const SpeKey& key, std::uint64_t epoch) {
    epoch_ = epoch;
    ciphers_.clear();
    const auto calibration = get_calibration(memory_.device_params());
    for (unsigned unit = 0; unit < memory_.config().units_per_block; ++unit)
      ciphers_.push_back(std::make_unique<SpeCipher>(key, calibration,
                                                     std::vector<unsigned>{}, unit));
  }

  [[nodiscard]] unsigned sched() const {
    return static_cast<unsigned>(ciphers_[0]->schedule().size());
  }
  [[nodiscard]] std::uint32_t pulses_per_block() const {
    return static_cast<std::uint32_t>(ciphers_.size()) * sched();
  }
  [[nodiscard]] unsigned cells() const { return ciphers_[0]->cell_count(); }

  Snvmm::Block& block(std::uint64_t addr) {
    auto it = blocks.find(addr);
    if (it == blocks.end()) {
      Snvmm::Block b;
      b.levels.assign(ciphers_.size() * cells(), 0);
      it = blocks.emplace(addr, std::move(b)).first;
    }
    return it->second;
  }

  /// Plaintext band centres followed by the first `pulses` encryption
  /// pulses, unit-major — the levels an Encrypt intent at progress
  /// `pulses` has left in the array.
  [[nodiscard]] std::vector<std::uint8_t> encrypted_prefix(
      std::span<const std::uint8_t> data, std::uint32_t pulses) const {
    const unsigned unit_bytes = cells() / 4;
    std::vector<std::uint8_t> out;
    for (unsigned unit = 0; unit < ciphers_.size(); ++unit) {
      UnitLevels levels =
          ciphers_[unit]->levels_from_bytes(data.subspan(unit * unit_bytes, unit_bytes));
      for (unsigned s = 0; s < sched() && unit * sched() + s < pulses; ++s)
        ciphers_[unit]->encrypt_step(levels, s);
      out.insert(out.end(), levels.begin(), levels.end());
    }
    return out;
  }

  void write(std::uint64_t addr, std::span<const std::uint8_t> data) {
    Snvmm::Block& b = block(addr);
    begin(addr, JournalOp::Program, 0, static_cast<std::uint32_t>(ciphers_.size()));
    b.wear += 1.0;
    const unsigned unit_bytes = cells() / 4;
    for (unsigned unit = 0; unit < ciphers_.size(); ++unit) {
      const UnitLevels levels =
          ciphers_[unit]->levels_from_bytes(data.subspan(unit * unit_bytes, unit_bytes));
      std::copy(levels.begin(), levels.end(), b.levels.begin() + unit * cells());
      advance();
    }
    b.encrypted = false;
    pending.erase(addr);
    begin(addr, JournalOp::Encrypt, 0, pulses_per_block());
    encrypt(b, 0);
    ++stats.writes;
  }

  std::vector<std::uint8_t> read(std::uint64_t addr) {
    Snvmm::Block& b = block(addr);
    if (b.encrypted) decrypt(addr, b);
    const unsigned unit_bytes = cells() / 4;
    std::vector<std::uint8_t> out(ciphers_.size() * unit_bytes);
    for (unsigned unit = 0; unit < ciphers_.size(); ++unit) {
      const UnitLevels levels(b.levels.begin() + unit * cells(),
                              b.levels.begin() + (unit + 1) * cells());
      ciphers_[unit]->bytes_from_levels(
          levels, std::span(out).subspan(unit * unit_bytes, unit_bytes));
    }
    ++stats.reads;
    if (mode_ == SpeMode::Parallel) {
      begin(addr, JournalOp::Encrypt, 0, pulses_per_block());
      encrypt(b, 0);
    } else {
      pending.insert(addr);
    }
    return out;
  }

  void resume_encrypt(std::uint64_t addr, std::uint32_t progress) {
    begin(addr, JournalOp::Encrypt, progress, pulses_per_block());
    encrypt(block(addr), progress);
    pending.erase(addr);
  }

  std::optional<std::uint64_t> background_encrypt_one() {
    if (pending.empty()) return std::nullopt;
    const std::uint64_t addr = *pending.begin();
    pending.erase(pending.begin());
    begin(addr, JournalOp::Encrypt, 0, pulses_per_block());
    encrypt(block(addr), 0);
    return addr;
  }

  void decrypt_for_handoff(std::uint64_t addr) {
    Snvmm::Block& b = block(addr);
    if (b.encrypted) decrypt(addr, b);
    pending.erase(addr);
  }

  std::map<std::uint64_t, Snvmm::Block> blocks;
  Specu::Stats stats;
  std::set<std::uint64_t> pending;
  /// When set, every journal transition appends the frozen state here.
  std::vector<KillPointState>* kill_points = nullptr;

private:
  struct Intent {
    std::uint64_t addr = 0;
    JournalOp op = JournalOp::Encrypt;
    std::uint32_t progress = 0;
    std::uint32_t total = 0;
    std::vector<std::uint8_t> pre_image;
  };

  void encrypt(Snvmm::Block& b, std::uint32_t progress) {
    stats.encrypt_pulses += pulses_per_block() - progress;
    for (unsigned unit = progress / sched(); unit < ciphers_.size(); ++unit) {
      const unsigned first = unit == progress / sched() ? progress % sched() : 0;
      UnitLevels levels(b.levels.begin() + unit * cells(),
                        b.levels.begin() + (unit + 1) * cells());
      for (unsigned s = first; s < sched(); ++s) {
        ciphers_[unit]->encrypt_step(levels, s);
        std::copy(levels.begin(), levels.end(), b.levels.begin() + unit * cells());
        advance();
      }
      ++stats.encrypt_ops;
      b.wear += Specu::kPulseWear * static_cast<double>(sched() - first);
    }
    b.encrypted = true;
    commit();
  }

  void decrypt(std::uint64_t addr, Snvmm::Block& b) {
    stats.decrypt_pulses += pulses_per_block();
    begin(addr, JournalOp::Decrypt, 0, pulses_per_block(), b.levels);
    for (unsigned unit = 0; unit < ciphers_.size(); ++unit) {
      UnitLevels levels(b.levels.begin() + unit * cells(),
                        b.levels.begin() + (unit + 1) * cells());
      for (unsigned s = sched(); s-- > 0;) {
        ciphers_[unit]->decrypt_step(levels, s);
        std::copy(levels.begin(), levels.end(), b.levels.begin() + unit * cells());
        advance();
      }
      ++stats.decrypt_ops;
      b.wear += Specu::kPulseWear * static_cast<double>(sched());
    }
    b.encrypted = false;
    commit();
  }

  void begin(std::uint64_t addr, JournalOp op, std::uint32_t progress,
             std::uint32_t total, std::vector<std::uint8_t> pre_image = {}) {
    intent_ = Intent{addr, op, progress, total, std::move(pre_image)};
    freeze();
  }
  void advance() {
    ++intent_->progress;
    freeze();
  }
  void commit() {
    intent_.reset();
    freeze();
  }
  void freeze() {
    if (kill_points == nullptr) return;
    KillPointState s;
    for (const auto& [addr, b] : blocks) s.levels.emplace(addr, b.levels);
    if (intent_) {
      s.journal_size = 1;
      s.intent_addr = intent_->addr;
      s.op = intent_->op;
      s.progress = intent_->progress;
      s.total = intent_->total;
      s.epoch = epoch_;
      s.pre_image = intent_->pre_image;
    }
    kill_points->push_back(std::move(s));
  }

  const Snvmm& memory_;
  SpeMode mode_;
  std::uint64_t epoch_ = 0;
  std::vector<std::unique_ptr<SpeCipher>> ciphers_;
  std::optional<Intent> intent_;
};

std::vector<std::uint8_t> random_block(std::uint64_t& rng, std::size_t bytes) {
  std::vector<std::uint8_t> data(bytes);
  for (auto& b : data) b = static_cast<std::uint8_t>(util::splitmix64(rng));
  return data;
}

void expect_matches(const Rig& rig, const Reference& ref) {
  const auto& blocks = std::as_const(*rig.memory).blocks();
  ASSERT_EQ(blocks.size(), ref.blocks.size());
  for (const auto& [addr, block] : blocks) {
    const auto it = ref.blocks.find(addr);
    ASSERT_NE(it, ref.blocks.end()) << "addr " << addr;
    EXPECT_EQ(block.levels, it->second.levels) << "addr " << addr;
    EXPECT_EQ(block.encrypted, it->second.encrypted) << "addr " << addr;
    EXPECT_DOUBLE_EQ(block.wear, it->second.wear) << "addr " << addr;
  }
  const Specu::Stats& s = rig.specu->stats();
  EXPECT_EQ(s.reads, ref.stats.reads);
  EXPECT_EQ(s.writes, ref.stats.writes);
  EXPECT_EQ(s.encrypt_ops, ref.stats.encrypt_ops);
  EXPECT_EQ(s.decrypt_ops, ref.stats.decrypt_ops);
  EXPECT_EQ(s.encrypt_pulses, ref.stats.encrypt_pulses);
  EXPECT_EQ(s.decrypt_pulses, ref.stats.decrypt_pulses);
  EXPECT_EQ(rig.specu->plaintext_blocks(), ref.pending.size());
  EXPECT_TRUE(rig.memory->journal().empty());
}

/// Writes `count` random blocks (addresses may repeat) to both the rig and
/// the reference. Returns the addresses used.
std::vector<std::uint64_t> write_both(Rig& rig, Reference& ref, std::uint64_t& rng,
                                      unsigned count, std::uint64_t addr_base) {
  std::vector<std::uint64_t> addrs;
  for (unsigned i = 0; i < count; ++i) {
    const std::uint64_t addr =
        addr_base + (util::splitmix64(rng) % (count * 2 + 1)) * 0x40;
    const auto data = random_block(rng, rig.memory->block_bytes());
    rig.specu->write_block(addr, data);
    ref.write(addr, data);
    addrs.push_back(addr);
  }
  return addrs;
}

Reference reference_for(const Rig& rig, SpeKey key, SpeMode mode) {
  return Reference(*rig.memory, key, mode, rig.specu->schedule_epoch());
}

TEST(SpecuOracle, RandomizedCorpusMatchesReferenceInBothModes) {
  std::uint64_t rng = 0x5EEDBA7C4ull;
  // Corpus rounds: empty, single, odd lengths, and a full width.
  const unsigned kRoundSizes[] = {0, 1, 3, 8, 13};
  for (const SpeMode mode : {SpeMode::Parallel, SpeMode::Serial}) {
    const SpeKey key{0x1357 + static_cast<unsigned>(mode), 0x2468};
    Rig rig(7, key, mode);
    Reference ref = reference_for(rig, key, mode);
    std::uint64_t addr_base = 0;
    for (const unsigned n : kRoundSizes) {
      const auto addrs = write_both(rig, ref, rng, n, addr_base);
      addr_base += 0x10000;
      expect_matches(rig, ref);
      // Read every address twice: the second read of a serial-mode block
      // finds it already plaintext.
      for (unsigned pass = 0; pass < 2; ++pass)
        for (const auto addr : addrs)
          EXPECT_EQ(rig.specu->read_block(addr), ref.read(addr)) << "addr " << addr;
      expect_matches(rig, ref);
    }
  }
}

TEST(SpecuOracle, KeyEpochRotationMatchesReference) {
  std::uint64_t rng = 0xE99ull;
  Rig rig(9, SpeKey{0xAAAA, 0xBBBB}, SpeMode::Parallel);
  Reference ref = reference_for(rig, SpeKey{0xAAAA, 0xBBBB}, SpeMode::Parallel);
  write_both(rig, ref, rng, 5, 0);
  expect_matches(rig, ref);
  const std::uint64_t epoch_before = rig.specu->schedule_epoch();
  // New key epoch: intents recorded from here on carry the new schedule.
  rig.rotate_key(SpeKey{0xCCCC, 0xDDDD});
  ASSERT_NE(rig.specu->schedule_epoch(), epoch_before);
  ref.rekey(SpeKey{0xCCCC, 0xDDDD}, rig.specu->schedule_epoch());
  const auto addrs = write_both(rig, ref, rng, 6, 0x40000);
  for (const auto addr : addrs) EXPECT_EQ(rig.specu->read_block(addr), ref.read(addr));
  expect_matches(rig, ref);
}

TEST(SpecuOracle, InjectedFaultsProduceReferenceGarbage) {
  std::uint64_t rng = 0xFA017ull;
  Rig rig(3, SpeKey{0x1111, 0x2222}, SpeMode::Parallel);
  Reference ref = reference_for(rig, SpeKey{0x1111, 0x2222}, SpeMode::Parallel);
  const auto addrs = write_both(rig, ref, rng, 4, 0);
  // Identical injected faults on both: flip level state in the encrypted
  // resting blocks, as a stuck-cell / drift fault would. Both must then
  // decrypt the damage into the same garbage.
  for (const auto addr : addrs) {
    auto& block = rig.memory->block(addr);
    for (unsigned i = 0; i < 5; ++i) {
      const auto cell = util::splitmix64(rng) % block.levels.size();
      const auto delta = static_cast<std::uint8_t>(1 + util::splitmix64(rng) % 63);
      block.levels[cell] = static_cast<std::uint8_t>((block.levels[cell] + delta) % 64);
    }
    ref.blocks.at(addr).levels = block.levels;
  }
  for (const auto addr : addrs) EXPECT_EQ(rig.specu->read_block(addr), ref.read(addr));
  expect_matches(rig, ref);
}

std::vector<KillPointState> record_kill_points(Rig& rig,
                                               const std::function<void()>& run) {
  std::vector<KillPointState> states;
  rig.memory->journal().set_observer([&] {
    KillPointState s;
    for (const auto& [addr, block] : std::as_const(*rig.memory).blocks())
      s.levels.emplace(addr, block.levels);
    const auto& entries = rig.memory->journal().entries();
    s.journal_size = entries.size();
    if (!entries.empty()) {
      const auto& [addr, entry] = *entries.begin();
      s.intent_addr = addr;
      s.op = entry.op;
      s.progress = entry.progress;
      s.total = entry.total;
      s.epoch = entry.epoch;
      s.pre_image = entry.pre_image;
    }
    states.push_back(std::move(s));
  });
  run();
  rig.memory->journal().set_observer({});
  return states;
}

TEST(SpecuOracle, JournalKillPointsMatchReference) {
  std::uint64_t rng = 0x0B17D1Eull;
  Rig rig(5, SpeKey{0x7777, 0x8888}, SpeMode::Parallel);
  Reference ref = reference_for(rig, SpeKey{0x7777, 0x8888}, SpeMode::Parallel);
  const std::vector<std::uint64_t> addrs = {0x40, 0x80, 0xC0};
  std::vector<std::vector<std::uint8_t>> data;
  for (std::size_t i = 0; i < addrs.size(); ++i)
    data.push_back(random_block(rng, rig.memory->block_bytes()));

  // Every begin/advance/commit during a 3-block write must freeze the same
  // array + journal state as the reference: a crash at any pulse recovers
  // from exactly the state the scalar sequence would have left.
  std::vector<KillPointState> expected;
  ref.kill_points = &expected;
  for (std::size_t i = 0; i < addrs.size(); ++i) ref.write(addrs[i], data[i]);
  const auto written = record_kill_points(rig, [&] {
    for (std::size_t i = 0; i < addrs.size(); ++i)
      rig.specu->write_block(addrs[i], data[i]);
  });
  ASSERT_EQ(written.size(), expected.size());
  for (std::size_t i = 0; i < written.size(); ++i)
    EXPECT_EQ(written[i], expected[i]) << "write kill point " << i;

  // And the same for the reads (decrypt + re-encrypt per block).
  expected.clear();
  for (const auto addr : addrs) (void)ref.read(addr);
  const auto read = record_kill_points(rig, [&] {
    for (const auto addr : addrs) (void)rig.specu->read_block(addr);
  });
  ASSERT_EQ(read.size(), expected.size());
  for (std::size_t i = 0; i < read.size(); ++i)
    EXPECT_EQ(read[i], expected[i]) << "read kill point " << i;
  ref.kill_points = nullptr;
  expect_matches(rig, ref);
}

TEST(SpecuOracle, ResumeEncryptFromEveryProgressIndex) {
  std::uint64_t rng = 0x2E5C3Eull;
  Rig rig(13, SpeKey{0x4242, 0x9999}, SpeMode::Serial);
  Reference ref = reference_for(rig, SpeKey{0x4242, 0x9999}, SpeMode::Serial);
  const std::uint32_t total = rig.specu->pulses_per_block();
  ASSERT_EQ(total, ref.pulses_per_block());
  for (std::uint32_t progress = 0; progress <= total; ++progress) {
    // Freeze the block as an encryption interrupted after `progress`
    // pulses would leave it, pending re-encryption, then resume.
    const std::uint64_t addr = 0x40 * (progress + 1);
    const auto data = random_block(rng, rig.memory->block_bytes());
    const auto frozen = ref.encrypted_prefix(data, progress);
    for (Snvmm::Block* block : {&rig.memory->block(addr), &ref.block(addr)}) {
      block->levels = frozen;
      block->encrypted = false;
    }
    rig.specu->adopt_pending(addr);
    ref.pending.insert(addr);
    rig.specu->resume_encrypt(addr, progress);
    ref.resume_encrypt(addr, progress);
    EXPECT_EQ(rig.memory->block(addr).levels, ref.encrypted_prefix(data, total))
        << "progress " << progress;
    expect_matches(rig, ref);
    EXPECT_EQ(rig.specu->read_block(addr), data) << "progress " << progress;
    (void)ref.read(addr);
  }
  expect_matches(rig, ref);
}

TEST(SpecuOracle, BackgroundEncryptAndHandoffMatchReference) {
  std::uint64_t rng = 0xBAC6ull;
  Rig rig(17, SpeKey{0x5151, 0x6262}, SpeMode::Serial);
  Reference ref = reference_for(rig, SpeKey{0x5151, 0x6262}, SpeMode::Serial);
  const auto addrs = write_both(rig, ref, rng, 6, 0);
  // Serial reads leave every block plaintext and pending.
  for (const auto addr : addrs) EXPECT_EQ(rig.specu->read_block(addr), ref.read(addr));
  expect_matches(rig, ref);
  // The background engine secures half of them, in the same order.
  for (unsigned i = 0; i < 3; ++i) {
    const auto secured = rig.specu->background_encrypt_one();
    ASSERT_TRUE(secured.has_value());
    EXPECT_EQ(secured, ref.background_encrypt_one());
  }
  expect_matches(rig, ref);
  // Rotation handoff decrypts the encrypted blocks and drops the plaintext
  // ones from the pending set.
  for (const auto addr : addrs) {
    rig.specu->decrypt_for_handoff(addr);
    ref.decrypt_for_handoff(addr);
  }
  expect_matches(rig, ref);
  EXPECT_FALSE(rig.specu->background_encrypt_one().has_value());
  EXPECT_FALSE(ref.background_encrypt_one().has_value());
}

TEST(SpecuOracle, UnpoweredAndBadSizesThrow) {
  Rig rig(11, SpeKey{0x1, 0x2}, SpeMode::Parallel);
  EXPECT_THROW(rig.specu->write_block(0x40, std::vector<std::uint8_t>(7)),
               std::invalid_argument);
  EXPECT_THROW(rig.specu->resume_encrypt(0x40, rig.specu->pulses_per_block() + 1),
               std::invalid_argument);
  rig.specu->power_down();
  EXPECT_THROW((void)rig.specu->read_block(0x40), std::logic_error);
  EXPECT_THROW(
      rig.specu->write_block(0x40, std::vector<std::uint8_t>(rig.memory->block_bytes())),
      std::logic_error);
  EXPECT_THROW(rig.specu->resume_encrypt(0x40, 0), std::logic_error);
  EXPECT_THROW(rig.specu->decrypt_for_handoff(0x40), std::logic_error);
}

}  // namespace
}  // namespace spe::core
