#include "core/intent_journal.hpp"

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spe::core {

namespace {
// Cross-layer journal transition counters (process-global; merged into
// every MemoryService::fill_metrics export next to the shards' own series).
obs::Counter& begin_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "spe_journal_begin_total", "intent journal begin transitions");
  return c;
}
obs::Counter& advance_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "spe_journal_advance_total", "intent journal pulse advances");
  return c;
}
obs::Counter& commit_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "spe_journal_commit_total", "intent journal commits");
  return c;
}
}  // namespace

void IntentJournal::begin(JournalEntry entry) {
  const std::uint64_t addr = entry.block_addr;
  const auto op = static_cast<std::uint64_t>(entry.op);
  entries_[addr] = std::move(entry);
  begin_counter().add(1);
  obs::Tracer::instance().instant("journal.begin", addr, op);
  notify();
}

void IntentJournal::advance(std::uint64_t block_addr) {
  const auto it = entries_.find(block_addr);
  if (it == entries_.end())
    throw std::logic_error("IntentJournal::advance: no open intent for block " +
                           std::to_string(block_addr));
  ++it->second.progress;
  advance_counter().add(1);
  // Per-pulse instants are the verbose tier: only when the tracer was
  // enabled with trace_pulses (golden traces, side-channel studies).
  obs::Tracer& tracer = obs::Tracer::instance();
  if (tracer.enabled() && tracer.pulses_traced())
    tracer.instant("journal.advance", block_addr, it->second.progress);
  notify();
}

void IntentJournal::commit(std::uint64_t block_addr) {
  if (entries_.erase(block_addr) > 0) {
    commit_counter().add(1);
    obs::Tracer::instance().instant("journal.commit", block_addr);
  }
  notify();
}

const JournalEntry* IntentJournal::find(std::uint64_t block_addr) const {
  const auto it = entries_.find(block_addr);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace spe::core
