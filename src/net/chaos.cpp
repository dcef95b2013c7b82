#include "net/chaos.hpp"

#include <sstream>

#include "util/rng.hpp"

namespace spe::net {

namespace {

// Per-action stream tags keep the decision classes statistically independent
// even though they hash the same sites (same idiom as fault_plan.cpp).
constexpr std::uint64_t kDropTag = 0xD209F4A3E5C0FFEEull;
constexpr std::uint64_t kDelayTag = 0xDE1A7ED5107712A1ull;
constexpr std::uint64_t kCorruptTag = 0xC0224907B17F11B5ull;
constexpr std::uint64_t kTruncateTag = 0x7249CA7E0FF5E75Dull;
constexpr std::uint64_t kDuplicateTag = 0xD4B11CA7EF2A3E59ull;
constexpr std::uint64_t kResetTag = 0x2E5E7C022EC7104Eull;
// Auxiliary streams (delay width, corrupt offset/mask, truncate point) get
// their own tags so they never correlate with the yes/no decisions.
constexpr std::uint64_t kDelayPickTag = 0xA1B2DE1A79C4D5E6ull;
constexpr std::uint64_t kOffsetTag = 0x0FF5E7B17E5EEDedull;
constexpr std::uint64_t kMaskTag = 0x3A5CF11BB17FA5C9ull;
constexpr std::uint64_t kTruncPickTag = 0x97249CA7E5E0D15Cull;

double unit_interval(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* to_string(ChaosAction action) noexcept {
  switch (action) {
    case ChaosAction::None: return "none";
    case ChaosAction::Drop: return "drop";
    case ChaosAction::Delay: return "delay";
    case ChaosAction::Corrupt: return "corrupt";
    case ChaosAction::Truncate: return "truncate";
    case ChaosAction::Duplicate: return "duplicate";
    case ChaosAction::Reset: return "reset";
  }
  return "none";
}

void ChaosStats::note(ChaosAction action) noexcept {
  switch (action) {
    case ChaosAction::None: break;
    case ChaosAction::Drop: dropped.fetch_add(1, std::memory_order_relaxed); break;
    case ChaosAction::Delay: delayed.fetch_add(1, std::memory_order_relaxed); break;
    case ChaosAction::Corrupt: corrupted.fetch_add(1, std::memory_order_relaxed); break;
    case ChaosAction::Truncate: truncated.fetch_add(1, std::memory_order_relaxed); break;
    case ChaosAction::Duplicate: duplicated.fetch_add(1, std::memory_order_relaxed); break;
    case ChaosAction::Reset: reset.fetch_add(1, std::memory_order_relaxed); break;
  }
}

std::uint64_t ChaosStats::total() const noexcept {
  return dropped.load(std::memory_order_relaxed) +
         delayed.load(std::memory_order_relaxed) +
         corrupted.load(std::memory_order_relaxed) +
         truncated.load(std::memory_order_relaxed) +
         duplicated.load(std::memory_order_relaxed) +
         reset.load(std::memory_order_relaxed);
}

std::string ChaosStats::to_string() const {
  std::ostringstream out;
  out << "drop=" << dropped.load(std::memory_order_relaxed)
      << " delay=" << delayed.load(std::memory_order_relaxed)
      << " corrupt=" << corrupted.load(std::memory_order_relaxed)
      << " truncate=" << truncated.load(std::memory_order_relaxed)
      << " duplicate=" << duplicated.load(std::memory_order_relaxed)
      << " reset=" << reset.load(std::memory_order_relaxed);
  return out.str();
}

ChaosPolicy::ChaosPolicy(ChaosConfig config)
    : config_(config), enabled_(config.rates.any()) {}

std::uint64_t ChaosPolicy::site_hash(std::uint64_t tag,
                                     const ChaosSite& site) const noexcept {
  std::uint64_t h = util::mix64(config_.seed ^ tag);
  h = util::mix64(h ^ site.stream);
  h = util::mix64(h ^ site.event);
  return util::mix64(h ^ ((std::uint64_t{site.opcode} << 1) | (site.rx ? 1u : 0u)));
}

ChaosAction ChaosPolicy::decide(const ChaosSite& site) const noexcept {
  if (!enabled_) return ChaosAction::None;
  const ChaosRates& rates = config_.rates;
  // Fixed precedence, each action on its own hash stream: the first action
  // whose independent coin lands wins. Precedence puts the most disruptive
  // outcomes first so raising e.g. the delay rate never masks a reset.
  if (rates.reset > 0.0 &&
      unit_interval(site_hash(kResetTag, site)) < rates.reset) {
    return ChaosAction::Reset;
  }
  if (rates.drop > 0.0 &&
      unit_interval(site_hash(kDropTag, site)) < rates.drop) {
    return ChaosAction::Drop;
  }
  if (rates.truncate > 0.0 &&
      unit_interval(site_hash(kTruncateTag, site)) < rates.truncate) {
    return ChaosAction::Truncate;
  }
  if (rates.corrupt > 0.0 &&
      unit_interval(site_hash(kCorruptTag, site)) < rates.corrupt) {
    return ChaosAction::Corrupt;
  }
  if (rates.duplicate > 0.0 &&
      unit_interval(site_hash(kDuplicateTag, site)) < rates.duplicate) {
    return ChaosAction::Duplicate;
  }
  if (rates.delay > 0.0 &&
      unit_interval(site_hash(kDelayTag, site)) < rates.delay) {
    return ChaosAction::Delay;
  }
  return ChaosAction::None;
}

std::chrono::milliseconds ChaosPolicy::delay_for(const ChaosSite& site) const noexcept {
  const auto lo = config_.delay_min.count();
  const auto hi = config_.delay_max.count();
  if (hi <= lo) return config_.delay_min;
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  const std::uint64_t pick = site_hash(kDelayPickTag, site) % span;
  return std::chrono::milliseconds(lo + static_cast<long long>(pick));
}

std::size_t ChaosPolicy::corrupt_offset(const ChaosSite& site,
                                        std::size_t len) const noexcept {
  if (len == 0) return 0;
  return static_cast<std::size_t>(site_hash(kOffsetTag, site) % len);
}

std::uint8_t ChaosPolicy::corrupt_mask(const ChaosSite& site) const noexcept {
  const auto mask = static_cast<std::uint8_t>(site_hash(kMaskTag, site) & 0xFF);
  return mask == 0 ? std::uint8_t{0x01} : mask;
}

std::size_t ChaosPolicy::truncate_len(const ChaosSite& site,
                                      std::size_t len) const noexcept {
  if (len == 0) return 0;
  return static_cast<std::size_t>(site_hash(kTruncPickTag, site) % len);
}

}  // namespace spe::net
