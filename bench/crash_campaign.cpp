// Kill-point crash campaign for the crash-consistency machinery (intent
// journal + checkpoint/restore + journal recovery). A scripted workload
// runs on a live MemoryService; MemoryService::capture_kill_points images
// the durable state after EVERY intent-journal transition of the target
// shard — exactly what a power loss at that instant would leave in the
// non-volatile array. The campaign then restores a fresh service from each
// image and audits every block:
//
//   * a block not touched by the interrupted op must read back bit-exactly
//     as its last acknowledged payload — anything else is SILENT CORRUPTION;
//   * the in-flight block must read as its old payload (rolled back), the
//     new payload (replayed forward), or throw the typed TornBlockError —
//     a torn loss is bounded to that one block and is loudly typed, never
//     silent.
//
// Determinism: no background threads, blocking ops in script order, no
// timing in the report — the campaign driver (campaign.hpp) replays each
// seed in-process and requires identical reports. Invariants: no silent
// corruption, no data loss outside the single in-flight block.
//
// Flags: --seeds N | A..B (device/key seed variation; default 0).
// Overrides: SPE_CRASH_BLOCKS (working set), SPE_CRASH_STRIDE (restore
//            every Nth kill point; CI smoke uses a large stride).

#include <sstream>
#include <string>
#include <vector>

#include "campaign.hpp"
#include "runtime/memory_service.hpp"
#include "util/table.hpp"

namespace {

using spe::runtime::MemoryService;
using spe::runtime::ServiceConfig;
using spe::runtime::TornBlockError;

struct ScriptOp {
  bool is_write;
  std::uint64_t addr;
  unsigned version;  // writes only
};

struct WorkloadResult {
  std::uint64_t ops = 0;
  std::uint64_t kill_points = 0;
  std::uint64_t restores = 0;
  std::uint64_t replayed = 0;
  std::uint64_t rolled_back = 0;
  std::uint64_t torn = 0;
  std::uint64_t clean_restores = 0;
  std::uint64_t silent = 0;      ///< wrong data without an error (must be 0)
  std::uint64_t stray_loss = 0;  ///< loss outside the in-flight block (must be 0)
};

std::vector<std::uint8_t> payload(std::uint64_t addr, unsigned version,
                                  unsigned block_bytes) {
  std::vector<std::uint8_t> data(block_bytes);
  for (unsigned i = 0; i < block_bytes; ++i)
    data[i] = static_cast<std::uint8_t>(7 * addr + 37 * version + 31 * i);
  return data;
}

WorkloadResult run_workload(spe::core::SpeMode mode, unsigned blocks,
                            unsigned stride, std::uint64_t seed) {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.worker_threads = 2;
  cfg.mode = mode;
  // Determinism: the scripted op is the only journal activity on its shard.
  cfg.scavenger_enabled = false;
  cfg.scrub_enabled = false;
  cfg.retry_backoff_base = std::chrono::microseconds{0};
  cfg.device_seed_base = 1 + seed;
  cfg.key_seed = 0x5EC0DE ^ seed;

  MemoryService service(cfg);
  const unsigned block_bytes = service.block_bytes();

  std::vector<unsigned> acked(blocks, 0);
  for (std::uint64_t addr = 0; addr < blocks; ++addr)
    service.write(addr, payload(addr, 0, block_bytes));

  // Writes hit fresh and dirty blocks on several shards; reads decrypt in
  // place (serial) or decrypt + re-encrypt (parallel) — every journal op
  // class appears as an interruption candidate.
  const std::vector<ScriptOp> script = {
      {true, 3 % blocks, 1},  {true, 7 % blocks, 2}, {false, 3 % blocks, 0},
      {true, 3 % blocks, 3},  {false, 7 % blocks, 0}, {true, 11 % blocks, 4},
  };

  WorkloadResult result;
  for (const ScriptOp& op : script) {
    ++result.ops;
    const std::vector<std::string> images =
        service.capture_kill_points(service.shard_of(op.addr), [&] {
          if (op.is_write)
            service.write(op.addr, payload(op.addr, op.version, block_bytes));
          else
            (void)service.read(op.addr);
        });
    result.kill_points += images.size();

    const auto old_payload = payload(op.addr, acked[op.addr], block_bytes);
    const auto new_payload =
        op.is_write ? payload(op.addr, op.version, block_bytes) : old_payload;

    for (std::size_t k = 0; k < images.size(); k += stride) {
      ++result.restores;
      std::istringstream in(images[k]);
      MemoryService restored(cfg, in);

      const auto totals = restored.recovery_report().totals();
      result.replayed += totals.replayed_forward;
      result.rolled_back += totals.rolled_back;
      result.torn += totals.torn_quarantined;
      if (restored.recovery_report().clean()) ++result.clean_restores;

      for (std::uint64_t addr = 0; addr < blocks; ++addr) {
        const bool in_flight = addr == op.addr;
        try {
          const auto got = restored.read(addr);
          const bool ok = got == payload(addr, acked[addr], block_bytes) ||
                          (in_flight && (got == old_payload || got == new_payload));
          if (!ok) ++result.silent;
        } catch (const TornBlockError&) {
          // Bounded loss: only the block the crash interrupted may be torn,
          // and only while a write (destructive program) was in flight.
          if (!in_flight || !op.is_write) ++result.stray_loss;
        } catch (const std::exception&) {
          ++result.stray_loss;
        }
      }
    }
    if (op.is_write) acked[op.addr] = op.version;
  }
  service.stop();
  return result;
}

spe::benchutil::CampaignResult sweep(std::uint64_t seed) {
  const unsigned blocks = std::max(4u, spe::benchutil::env_or("SPE_CRASH_BLOCKS", 16));
  const unsigned stride = std::max(1u, spe::benchutil::env_or("SPE_CRASH_STRIDE", 1));
  std::string report = spe::benchutil::banner_text(
      "Kill-point crash campaign (" + std::to_string(blocks) + " blocks, stride " +
          std::to_string(stride) + ", seed " + std::to_string(seed) + ")",
      "crash-consistency acceptance sweep (not a paper figure)");

  spe::util::Table table({"workload", "ops", "kill_pts", "restores", "replayed",
                          "rolledbk", "torn", "clean", "silent", "stray"});
  std::uint64_t silent_total = 0;
  std::uint64_t stray_total = 0;
  const struct {
    const char* label;
    spe::core::SpeMode mode;
  } workloads[] = {
      {"serial", spe::core::SpeMode::Serial},
      {"parallel", spe::core::SpeMode::Parallel},
  };
  for (const auto& w : workloads) {
    const WorkloadResult r = run_workload(w.mode, blocks, stride, seed);
    silent_total += r.silent;
    stray_total += r.stray_loss;
    table.add_row({w.label, std::to_string(r.ops), std::to_string(r.kill_points),
                   std::to_string(r.restores), std::to_string(r.replayed),
                   std::to_string(r.rolled_back), std::to_string(r.torn),
                   std::to_string(r.clean_restores), std::to_string(r.silent),
                   std::to_string(r.stray_loss)});
  }
  report += table.render();

  report +=
      "\nEvery restore is a simulated power loss at one journal transition.\n"
      "silent = a block that read back as data nobody acknowledged writing;\n"
      "stray = data loss outside the single in-flight block. replayed/\n"
      "rolledbk/torn count the recovery classifications across all restores\n"
      "(clean = the kill point landed outside any open intent).\n";
  return spe::benchutil::CampaignResult{report,
                                        {{"silent corruption events", silent_total},
                                         {"stray data-loss events", stray_total}}};
}

}  // namespace

int main(int argc, char** argv) {
  return spe::benchutil::run_campaign(argc, argv, 0, sweep);
}
