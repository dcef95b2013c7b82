// Pins MemoryService::export_metrics(Prometheus) for a fixed, seeded,
// single-client workload with a fault plan: every spe_* family the service
// records keeps its name, help text, type and value. The expected text was
// captured from the service before its counters moved into per-shard obs
// instruments. Excluded because they are not functions of this workload:
// histogram _bucket/_sum lines (wall-clock latencies), the
// process-cumulative series merged in from MetricsRegistry::global(), and
// spe_trace_events_dropped_total (the process-wide tracer's count).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/memory_service.hpp"

namespace spe::runtime {
namespace {

ServiceConfig pinned_config() {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.worker_threads = 2;
  cfg.mode = core::SpeMode::Serial;
  // Determinism: no background thread; scrubbing runs synchronously.
  cfg.scavenger_enabled = false;
  cfg.scrub_enabled = false;
  cfg.retry_backoff_base = std::chrono::microseconds{0};
  cfg.fault_injection = true;
  cfg.fault_seed = 0x5EED;
  cfg.faults.stuck_at_lrs_rate = 4e-3;
  cfg.faults.stuck_at_hrs_rate = 4e-3;
  cfg.faults.drift_sigma = 0.1;
  cfg.faults.read_noise_rate = 5e-4;
  cfg.faults.dropped_pulse_rate = 1e-4;
  return cfg;
}

std::vector<std::uint8_t> payload(std::uint64_t block, unsigned version, unsigned bytes) {
  std::vector<std::uint8_t> data(bytes);
  for (unsigned i = 0; i < bytes; ++i)
    data[i] = static_cast<std::uint8_t>(block * 31 + version * 13 + i * 7 + 1);
  return data;
}

/// One blocking client: write, scrub, read back, rewrite a third, read again.
void run_workload(MemoryService& service) {
  constexpr std::uint64_t kBlocks = 64;
  const unsigned bytes = service.block_bytes();
  const auto attempt = [](auto&& op) {
    try {
      op();
    } catch (const std::exception&) {  // typed fault errors are part of the run
    }
  };
  for (std::uint64_t b = 0; b < kBlocks; ++b)
    attempt([&] { service.write(b, payload(b, 0, bytes)); });
  for (int pass = 0; pass < 2; ++pass) (void)service.scrub_all();
  for (std::uint64_t b = 0; b < kBlocks; ++b) attempt([&] { (void)service.read(b); });
  for (std::uint64_t b = 0; b < kBlocks; b += 3)
    attempt([&] { service.write(b, payload(b, 1, bytes)); });
  for (std::uint64_t b = 0; b < kBlocks; ++b) attempt([&] { (void)service.read(b); });
}

/// Metric name of a sample line, or the family of a # HELP / # TYPE line.
std::string line_name(const std::string& line) {
  std::istringstream in(line);
  std::string first, second, third;
  in >> first >> second >> third;
  return first == "#" ? third : first;
}

bool excluded(const std::string& line, const std::set<std::string>& global_families) {
  const std::string name = line_name(line);
  const std::string base = name.substr(0, name.find('{'));
  if (base.ends_with("_bucket") || base.ends_with("_sum")) return true;
  if (base == "spe_trace_events_dropped_total") return true;
  return global_families.contains(base);
}

std::string filtered_export(const MemoryService& service) {
  std::set<std::string> global_families;
  for (const std::string& name : obs::MetricsRegistry::global().names())
    global_families.insert(name.substr(0, name.find('{')));
  std::istringstream in(service.export_metrics(obs::MetricsFormat::Prometheus));
  std::string out;
  for (std::string line; std::getline(in, line);)
    if (!excluded(line, global_families)) out += line + "\n";
  return out;
}

constexpr const char* kPinnedExport = R"pin(# HELP spe_background_encrypted_total blocks re-encrypted by the scavenger
# TYPE spe_background_encrypted_total counter
spe_background_encrypted_total 0
# HELP spe_background_latency_ns one scavenger block re-encryption
# TYPE spe_background_latency_ns histogram
spe_background_latency_ns_count 0
# HELP spe_blocks_quarantined_total quarantine insertions
# TYPE spe_blocks_quarantined_total counter
spe_blocks_quarantined_total 6
# HELP spe_blocks_remapped_total spare-location remaps
# TYPE spe_blocks_remapped_total counter
spe_blocks_remapped_total 17
# HELP spe_blocks_scrubbed_total scrub verifications run
# TYPE spe_blocks_scrubbed_total counter
spe_blocks_scrubbed_total 120
# HELP spe_decrypt_ops_total per crossbar-unit decryptions
# TYPE spe_decrypt_ops_total counter
spe_decrypt_ops_total 328
# HELP spe_decrypt_pulses_total reverse pulses applied decrypting
# TYPE spe_decrypt_pulses_total counter
spe_decrypt_pulses_total 5248
# HELP spe_encrypt_ops_total per crossbar-unit encryptions
# TYPE spe_encrypt_ops_total counter
spe_encrypt_ops_total 652
# HELP spe_encrypt_pulses_total PoE pulses applied encrypting
# TYPE spe_encrypt_pulses_total counter
spe_encrypt_pulses_total 10432
# HELP spe_encrypted_fraction fraction of resident blocks encrypted
# TYPE spe_encrypted_fraction gauge
spe_encrypted_fraction 0.046875
# HELP spe_faults_corrected_total cells repaired by SEC-DED
# TYPE spe_faults_corrected_total counter
spe_faults_corrected_total 485
# HELP spe_faults_detected_total ECC verify events that found damage
# TYPE spe_faults_detected_total counter
spe_faults_detected_total 380
spe_faults_detected_total{shard="0"} 102
spe_faults_detected_total{shard="1"} 74
spe_faults_detected_total{shard="2"} 112
spe_faults_detected_total{shard="3"} 92
# HELP spe_faults_uncorrectable_total ops or scrubs abandoned as uncorrectable
# TYPE spe_faults_uncorrectable_total counter
spe_faults_uncorrectable_total 6
# HELP spe_injected_faults_total faults materialised by the injectors
# TYPE spe_injected_faults_total counter
spe_injected_faults_total 829
# HELP spe_plaintext_blocks blocks resting decrypted (SPE-serial window)
# TYPE spe_plaintext_blocks gauge
spe_plaintext_blocks 61
# HELP spe_quarantined_blocks blocks currently quarantined
# TYPE spe_quarantined_blocks gauge
spe_quarantined_blocks 5
# HELP spe_queue_depth requests currently queued across shards
# TYPE spe_queue_depth gauge
spe_queue_depth 0
spe_queue_depth{shard="0"} 0
spe_queue_depth{shard="1"} 0
spe_queue_depth{shard="2"} 0
spe_queue_depth{shard="3"} 0
# HELP spe_queue_high_water deepest per-shard queue observed
# TYPE spe_queue_high_water gauge
spe_queue_high_water 1
# HELP spe_read_latency_ns submit to future-fulfilled read latency
# TYPE spe_read_latency_ns histogram
spe_read_latency_ns_count 119
# HELP spe_read_retries_total extra sense attempts after a failed verify
# TYPE spe_read_retries_total counter
spe_read_retries_total 9
# HELP spe_reads_total completed read operations
# TYPE spe_reads_total counter
spe_reads_total 119
spe_reads_total{shard="0"} 29
spe_reads_total{shard="1"} 28
spe_reads_total{shard="2"} 34
spe_reads_total{shard="3"} 28
# HELP spe_requests_rejected_total Reject-policy queue bounces
# TYPE spe_requests_rejected_total counter
spe_requests_rejected_total 0
# HELP spe_resident_blocks blocks resident across shards
# TYPE spe_resident_blocks gauge
spe_resident_blocks 64
# HELP spe_shards bank shards in the service
# TYPE spe_shards gauge
spe_shards 4
# HELP spe_write_latency_ns submit to future-fulfilled write latency
# TYPE spe_write_latency_ns histogram
spe_write_latency_ns_count 82
# HELP spe_write_retries_total extra program attempts after a failed verify
# TYPE spe_write_retries_total counter
spe_write_retries_total 61
# HELP spe_writes_coalesced_total write futures satisfied by a merged write
# TYPE spe_writes_coalesced_total counter
spe_writes_coalesced_total 0
# HELP spe_writes_total completed write operations (all waiters)
# TYPE spe_writes_total counter
spe_writes_total 82
spe_writes_total{shard="0"} 20
spe_writes_total{shard="1"} 20
spe_writes_total{shard="2"} 22
spe_writes_total{shard="3"} 20
)pin";

TEST(MetricsExport, PrometheusTextMatchesPinnedCapture) {
  MemoryService service(pinned_config());
  run_workload(service);
  const std::string text = filtered_export(service);
  EXPECT_EQ(text, kPinnedExport);

  // Every {shard="s"} family sums to its unlabelled total.
  std::map<std::string, double> totals, labelled;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("#")) continue;
    const std::string name = line_name(line);
    const double value = std::stod(line.substr(line.rfind(' ') + 1));
    const auto brace = name.find("{shard=");
    if (brace == std::string::npos)
      totals[name] = value;
    else
      labelled[name.substr(0, brace)] += value;
  }
  ASSERT_EQ(labelled.size(), 4u);  // reads, writes, faults detected, queue depth
  for (const auto& [family, sum] : labelled) {
    ASSERT_TRUE(totals.contains(family)) << family;
    EXPECT_EQ(totals[family], sum) << family;
  }
  service.stop();
}

}  // namespace
}  // namespace spe::runtime
