#include "runtime/service_stats.hpp"

#include <limits>
#include <sstream>

namespace spe::runtime {

namespace {
/// a += b, clamping at the type's max (totals must stay monotonic, never wrap).
template <typename T>
void sat_add(T& a, T b) noexcept {
  a = b > std::numeric_limits<T>::max() - a ? std::numeric_limits<T>::max() : a + b;
}
}  // namespace

ShardStatsSnapshot snapshot_counters(unsigned shard, const ShardCounters& c) {
  ShardStatsSnapshot s;
  s.shard = shard;
  s.reads_completed = c.reads_completed.load(std::memory_order_relaxed);
  s.writes_completed = c.writes_completed.load(std::memory_order_relaxed);
  s.writes_coalesced = c.writes_coalesced.load(std::memory_order_relaxed);
  s.rejected = c.rejected.load(std::memory_order_relaxed);
  s.background_encrypted = c.background_encrypted.load(std::memory_order_relaxed);
  s.queue_high_water = c.queue_high_water.load(std::memory_order_relaxed);
  s.faults_detected = c.faults_detected.load(std::memory_order_relaxed);
  s.faults_corrected = c.faults_corrected.load(std::memory_order_relaxed);
  s.faults_uncorrectable = c.faults_uncorrectable.load(std::memory_order_relaxed);
  s.blocks_quarantined = c.blocks_quarantined.load(std::memory_order_relaxed);
  s.read_retries = c.read_retries.load(std::memory_order_relaxed);
  s.write_retries = c.write_retries.load(std::memory_order_relaxed);
  s.blocks_remapped = c.blocks_remapped.load(std::memory_order_relaxed);
  s.blocks_scrubbed = c.blocks_scrubbed.load(std::memory_order_relaxed);
  s.read_latency = c.read_latency.snapshot();
  s.write_latency = c.write_latency.snapshot();
  s.background_latency = c.background_latency.snapshot();
  return s;
}

ServiceStatsSnapshot aggregate(std::vector<ShardStatsSnapshot> shards) {
  ServiceStatsSnapshot out;
  for (const ShardStatsSnapshot& s : shards) {
    sat_add(out.totals.reads_completed, s.reads_completed);
    sat_add(out.totals.writes_completed, s.writes_completed);
    sat_add(out.totals.writes_coalesced, s.writes_coalesced);
    sat_add(out.totals.rejected, s.rejected);
    sat_add(out.totals.background_encrypted, s.background_encrypted);
    if (s.queue_high_water > out.totals.queue_high_water)
      out.totals.queue_high_water = s.queue_high_water;
    sat_add(out.totals.faults_detected, s.faults_detected);
    sat_add(out.totals.faults_corrected, s.faults_corrected);
    sat_add(out.totals.faults_uncorrectable, s.faults_uncorrectable);
    sat_add(out.totals.blocks_quarantined, s.blocks_quarantined);
    sat_add(out.totals.read_retries, s.read_retries);
    sat_add(out.totals.write_retries, s.write_retries);
    sat_add(out.totals.blocks_remapped, s.blocks_remapped);
    sat_add(out.totals.blocks_scrubbed, s.blocks_scrubbed);
    sat_add(out.totals.injected_faults, s.injected_faults);
    sat_add(out.totals.quarantined_now, s.quarantined_now);
    sat_add(out.totals.plaintext_blocks, s.plaintext_blocks);
    sat_add(out.totals.resident_blocks, s.resident_blocks);
    out.totals.read_latency += s.read_latency;
    out.totals.write_latency += s.write_latency;
    out.totals.background_latency += s.background_latency;
  }
  out.shards = std::move(shards);
  return out;
}

namespace {
void print_latency_row(std::ostringstream& os, const char* name,
                       const LatencyHistogram::Snapshot& h) {
  os << "  " << name << ": n=" << h.count;
  if (h.count > 0) {
    os << " mean=" << h.mean().count() / 1000.0 << "us"
       << " p50=" << h.p50().count() / 1000.0 << "us"
       << " p95=" << h.p95().count() / 1000.0 << "us"
       << " p99=" << h.p99().count() / 1000.0 << "us";
  }
  os << "\n";
}
}  // namespace

std::string ServiceStatsSnapshot::to_string() const {
  std::ostringstream os;
  os << "service totals: reads=" << totals.reads_completed
     << " writes=" << totals.writes_completed
     << " coalesced=" << totals.writes_coalesced << " rejected=" << totals.rejected
     << " bg_encrypted=" << totals.background_encrypted
     << " queue_hwm=" << totals.queue_high_water
     << " plaintext=" << totals.plaintext_blocks << "/" << totals.resident_blocks
     << " blocks\n";
  os << "  resilience: detected=" << totals.faults_detected
     << " corrected=" << totals.faults_corrected
     << " uncorrectable=" << totals.faults_uncorrectable
     << " quarantined=" << totals.blocks_quarantined << " (now "
     << totals.quarantined_now << ")"
     << " remapped=" << totals.blocks_remapped
     << " retries=r" << totals.read_retries << "/w" << totals.write_retries
     << " scrubbed=" << totals.blocks_scrubbed
     << " injected=" << totals.injected_faults << "\n";
  print_latency_row(os, "read ", totals.read_latency);
  print_latency_row(os, "write", totals.write_latency);
  print_latency_row(os, "bgenc", totals.background_latency);
  for (const ShardStatsSnapshot& s : shards) {
    os << "  shard " << s.shard << ": r=" << s.reads_completed
       << " w=" << s.writes_completed << " coal=" << s.writes_coalesced
       << " rej=" << s.rejected << " bg=" << s.background_encrypted
       << " hwm=" << s.queue_high_water << " pt=" << s.plaintext_blocks << "/"
       << s.resident_blocks << "\n";
  }
  return os.str();
}

}  // namespace spe::runtime
