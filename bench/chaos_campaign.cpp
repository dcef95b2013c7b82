// End-to-end failure-resilience campaign (DESIGN.md §13): a deterministic
// kill/drop/delay storm over an in-process multi-node cluster, driven by a
// single resilient ClusterClient. Every frame the client sends or receives
// passes through a seeded net::ChaosPolicy (drops, delays, corruption,
// truncation, duplication, connection resets), and at scheduled op indices
// a whole node is stopped, checkpointed, and rebooted — so the storm covers
// both lossy links and crashing peers.
//
// Invariants (checked by the campaign driver, campaign.hpp):
//   * zero silent corruption — every successful read returns the last
//     acknowledged payload (or, for a write whose outcome the client
//     reported as ambiguous, one of {old, new}; the read reconciles it);
//   * zero untyped errors — every failed op throws a typed error from the
//     net/cluster taxonomy, never a raw runtime_error or a hang;
//   * every op resolves within its deadline budget (plus bounded slack for
//     the failover machinery), success or failure;
//   * zero stuck futures — after the final drain every server's in-flight
//     count is zero;
//   * a final chaos-free verification pass reads every block back
//     bit-exactly.
//
// Determinism: the driver is single-threaded and synchronous (one op in
// flight), the chaos schedule is a pure function of (seed, stream, event),
// and pooled-client streams key off endpoint hashes + reconnect epochs —
// so a fixed seed replays the identical injection schedule and the report
// is byte-identical across runs (the driver replays each seed in-process).
// Timing diagnostics go to stderr, never into the report.
//
// Flags: --seeds N | A..B (schedule; default 0xC4A05).
// Overrides: SPE_CHAOS_OPS (storm length), SPE_CHAOS_BLOCKS (working set),
//            SPE_CHAOS_KILLS (node restarts), SPE_CHAOS_DEADLINE_MS
//            (per-op budget).

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "campaign.hpp"
#include "cluster/cluster_client.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/topology.hpp"
#include "net/chaos.hpp"
#include "net/resilience.hpp"
#include "net/server.hpp"
#include "util/rng.hpp"

namespace {

using spe::cluster::ClusterClient;
using spe::cluster::ClusterClientConfig;
using spe::cluster::ClusterTopology;
using spe::cluster::NodeInfo;
using spe::benchutil::payload_for;

spe::runtime::ServiceConfig small_service_config() {
  spe::runtime::ServiceConfig cfg;
  cfg.shards = 2;
  cfg.worker_threads = 2;
  cfg.queue_capacity = 64;
  cfg.scavenger_enabled = false;
  return cfg;
}

/// Reserves an ephemeral loopback port: bind, read it back, close.
std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof addr;
  (void)::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// One cluster node, restartable in place. A kill stops the server (which
/// drains in-flight work with typed errors), checkpoints the quiescent
/// service in memory, tears everything down, and boots from the checkpoint
/// — the client sees connection resets and rejoins via failover.
struct Node {
  Node(std::string name_, std::uint16_t port_, ClusterTopology topo)
      : name(std::move(name_)), port(port_), topology(std::move(topo)) {
    config.node_name = name;
    boot();
  }

  ~Node() { shutdown(); }

  void boot() {
    if (checkpoint.empty()) {
      service = std::make_unique<spe::runtime::MemoryService>(small_service_config());
    } else {
      std::istringstream in(checkpoint);
      service = std::make_unique<spe::runtime::MemoryService>(small_service_config(), in);
    }
    coordinator.emplace(*service, topology, config);
    (void)coordinator->recover();
    spe::net::ServerConfig server_cfg;
    server_cfg.port = port;
    // Short enough that a drain resolves queued ops well inside the
    // client's op deadline, long enough to flush in-flight completions.
    server_cfg.drain_timeout = std::chrono::milliseconds{250};
    server = std::make_unique<spe::net::Server>(*service, server_cfg);
    server->set_cluster_handler(&*coordinator);
    if (server->start() != port)
      throw spe::benchutil::CampaignSetupError("node " + name + " failed to bind");
  }

  /// Graceful-drain stop; returns the server's post-drain in-flight count
  /// (the "no stuck futures" probe).
  std::uint64_t shutdown() {
    std::uint64_t stuck = 0;
    if (server) {
      server->stop();
      stuck = server->pending_requests();
    }
    server.reset();
    coordinator.reset();
    if (service) {
      std::ostringstream out;
      service->checkpoint(out);
      checkpoint = std::move(out).str();
      service->stop();
    }
    service.reset();
    return stuck;
  }

  std::uint64_t kill_and_restart() {
    const std::uint64_t stuck = shutdown();
    boot();
    return stuck;
  }

  NodeInfo info() const { return NodeInfo{name, "127.0.0.1", port, 1}; }

  std::string name;
  std::uint16_t port;
  ClusterTopology topology;
  std::string checkpoint;  ///< the last shutdown's image; empty before the first
  spe::cluster::CoordinatorConfig config;
  std::unique_ptr<spe::runtime::MemoryService> service;
  std::optional<spe::cluster::ClusterCoordinator> coordinator;
  std::unique_ptr<spe::net::Server> server;
};

struct StormResult {
  std::uint64_t ops = 0;
  std::uint64_t ok = 0;
  std::uint64_t typed_errors = 0;
  std::uint64_t ambiguous = 0;
  std::uint64_t kills = 0;
  std::uint64_t silent = 0;            ///< wrong data without an error (must be 0)
  std::uint64_t untyped = 0;           ///< non-taxonomy exceptions (must be 0)
  std::uint64_t deadline_violations = 0;  ///< ops that outran budget + slack
  std::uint64_t stuck_futures = 0;     ///< unresolved server futures (must be 0)
  std::uint64_t verify_mismatches = 0;
};

spe::benchutil::CampaignResult storm(std::uint64_t seed) {
  const unsigned ops = std::max(1u, spe::benchutil::env_or("SPE_CHAOS_OPS", 300));
  const unsigned blocks = std::max(4u, spe::benchutil::env_or("SPE_CHAOS_BLOCKS", 24));
  const unsigned kills = spe::benchutil::env_or("SPE_CHAOS_KILLS", 2);
  const std::uint64_t deadline_ms =
      std::max<std::uint64_t>(100, spe::benchutil::env_or("SPE_CHAOS_DEADLINE_MS", 2'000));
  std::string report = spe::benchutil::banner_text(
      "Network chaos campaign (seed " + std::to_string(seed) + ", " +
          std::to_string(ops) + " ops, " + std::to_string(kills) + " kills)",
      "failure-resilience acceptance sweep (not a paper figure)");

  const std::uint16_t pa = reserve_port(), pb = reserve_port(), pc = reserve_port();
  if (pa == 0 || pb == 0 || pc == 0)
    throw spe::benchutil::CampaignSetupError("could not reserve loopback ports");
  ClusterTopology topo{1,
                       {{"a", "127.0.0.1", pa, 1},
                        {"b", "127.0.0.1", pb, 1},
                        {"c", "127.0.0.1", pc, 1}}};
  Node a("a", pa, topo), b("b", pb, topo), c("c", pc, topo);
  const std::array<Node*, 3> nodes = {&a, &b, &c};

  // All injection is client-side: tx chaos mangles requests before the
  // servers see them, rx chaos mangles/drops the responses — both
  // directions of every link get the full taxonomy while the servers stay
  // deterministic. Node crashes supply the server-side failure modes.
  spe::net::ChaosConfig chaos_cfg;
  chaos_cfg.seed = seed;
  chaos_cfg.rates = {.drop = 0.03,
                     .delay = 0.05,
                     .corrupt = 0.02,
                     .truncate = 0.01,
                     .duplicate = 0.02,
                     .reset = 0.015};
  chaos_cfg.delay_max = std::chrono::milliseconds{10};
  auto chaos = std::make_shared<spe::net::ChaosPolicy>(chaos_cfg);

  ClusterClientConfig ccfg;
  ccfg.seeds = {a.info(), b.info(), c.info()};
  ccfg.op_retries = 64;  // the deadline, not the hop count, bounds the op
  ccfg.op_deadline = std::chrono::milliseconds{static_cast<long>(deadline_ms)};
  ccfg.net.chaos = chaos;
  ccfg.net.io_deadline = std::chrono::milliseconds{150};
  ccfg.net.connect_retries = 3;
  ccfg.net.connect_retry_backoff = std::chrono::milliseconds{10};
  ccfg.net.connect_backoff_max = std::chrono::milliseconds{80};
  ccfg.retry.backoff_base = std::chrono::milliseconds{1};
  ccfg.retry.backoff_max = std::chrono::milliseconds{20};
  ccfg.breaker.open_timeout = std::chrono::milliseconds{100};
  ClusterClient client(ccfg);
  client.connect();

  const unsigned block_bytes = a.service->block_bytes();

  // Seed every block at generation 0 through a clean client, so the storm
  // starts from a known state; the shadow map then tracks what the cluster
  // acknowledged (or may hold, for ambiguous writes).
  {
    ClusterClientConfig scfg;
    scfg.seeds = {a.info(), b.info(), c.info()};
    ClusterClient seeder(scfg);
    seeder.connect();
    for (std::uint64_t addr = 0; addr < blocks; ++addr)
      seeder.write_block(addr, payload_for(addr, block_bytes, 0));
  }
  std::vector<unsigned> acked(blocks, 0);
  std::vector<std::optional<unsigned>> maybe(blocks);  // ambiguous new generation
  StormResult result;

  // Kill schedule: evenly spaced op indices, node picked by the seed.
  std::map<unsigned, unsigned> kill_at;
  for (unsigned k = 0; k < kills; ++k) {
    const unsigned at = (ops * (k + 1)) / (kills + 1);
    kill_at[at] = static_cast<unsigned>(spe::util::mix64(seed ^ 0x5EEDC1DEull ^ k) % 3);
  }

  std::uint64_t rng = spe::util::mix64(seed ^ 0x0B5C4EDull);
  std::vector<unsigned> next_gen(blocks, 1);

  const auto slack = std::chrono::milliseconds{static_cast<long>(deadline_ms) * 4 + 2'000};
  for (unsigned i = 0; i < ops; ++i) {
    if (const auto kill = kill_at.find(i); kill != kill_at.end()) {
      ++result.kills;
      result.stuck_futures += nodes[kill->second]->kill_and_restart();
    }
    const std::uint64_t h = spe::util::splitmix64(rng);
    const bool is_write = (h & 1) != 0;
    const std::uint64_t addr = (h >> 1) % blocks;
    ++result.ops;
    const auto start = std::chrono::steady_clock::now();
    try {
      if (is_write) {
        const unsigned gen = next_gen[addr]++;
        client.write_block(addr, payload_for(addr, block_bytes, gen));
        acked[addr] = gen;
        maybe[addr].reset();
        ++result.ok;
      } else {
        const std::vector<std::uint8_t> got = client.read_block(addr);
        bool match = got == payload_for(addr, block_bytes, acked[addr]);
        if (!match && maybe[addr] &&
            got == payload_for(addr, block_bytes, *maybe[addr])) {
          // The ambiguous write did land; the read reconciles the shadow.
          acked[addr] = *maybe[addr];
          maybe[addr].reset();
          match = true;
        }
        if (!match) {
          ++result.silent;
          int found = -1;
          for (unsigned g = 0; g < next_gen[addr]; ++g)
            if (got == payload_for(addr, block_bytes, g)) found = static_cast<int>(g);
          std::fprintf(stderr,
                       "chaos_campaign: SILENT op %u addr %llu acked gen %u maybe %d "
                       "read-back matches gen %d\n",
                       i, static_cast<unsigned long long>(addr), acked[addr],
                       maybe[addr] ? static_cast<int>(*maybe[addr]) : -1, found);
        } else {
          ++result.ok;
        }
      }
    } catch (const spe::net::AmbiguousResultError&) {
      // Only writes are ambiguous: the block may hold either generation
      // until a later read reconciles it.
      ++result.typed_errors;
      ++result.ambiguous;
      if (is_write) maybe[addr] = next_gen[addr] - 1;
    } catch (const spe::net::RemoteError& e) {
      ++result.typed_errors;
      // Timeout abandons the response, not the op — the shard may still
      // execute the write; a drain-time Stopped is equally inconclusive.
      // Same ambiguity as a mid-flight send.
      if (is_write && (e.status() == spe::net::Status::Timeout ||
                       e.status() == spe::net::Status::Stopped))
        maybe[addr] = next_gen[addr] - 1;
    } catch (const spe::net::DeadlineExceededError&) {
      ++result.typed_errors;
    } catch (const spe::net::CircuitOpenError&) {
      ++result.typed_errors;
    } catch (const spe::net::NetError&) {
      ++result.typed_errors;  // Connect/Timeout/Protocol/ClusterRouting
    } catch (const std::exception& e) {
      ++result.untyped;
      std::fprintf(stderr, "chaos_campaign: UNTYPED error on op %u: %s\n", i, e.what());
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (elapsed > slack) {
      ++result.deadline_violations;
      std::fprintf(stderr, "chaos_campaign: op %u took %lld ms (budget %llu ms)\n", i,
                   static_cast<long long>(
                       std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                           .count()),
                   static_cast<unsigned long long>(deadline_ms));
    }
  }

  // Final verification: a fresh chaos-free client reads every block back.
  // Ambiguous blocks reconcile to whichever generation actually landed.
  ClusterClientConfig vcfg;
  vcfg.seeds = {a.info(), b.info(), c.info()};
  vcfg.op_deadline = std::chrono::milliseconds{10'000};
  ClusterClient verifier(vcfg);
  verifier.connect();
  for (std::uint64_t addr = 0; addr < blocks; ++addr) {
    try {
      const std::vector<std::uint8_t> got = verifier.read_block(addr);
      const bool ok = got == payload_for(addr, block_bytes, acked[addr]) ||
                      (maybe[addr] && got == payload_for(addr, block_bytes, *maybe[addr]));
      if (!ok) ++result.verify_mismatches;
    } catch (const std::exception& e) {
      ++result.verify_mismatches;
      std::fprintf(stderr, "chaos_campaign: verify read %llu failed: %s\n",
                   static_cast<unsigned long long>(addr), e.what());
    }
  }

  // Drain every node and probe for stuck futures.
  for (Node* node : nodes) result.stuck_futures += node->shutdown();

  // Deterministic report: schedule-derived fields only. Retry / breaker /
  // chaos diagnostics are timing-coloured, so they go to stderr.
  report += "seed:                " + std::to_string(seed) + "\n";
  report += "ops:                 " + std::to_string(result.ops) + "\n";
  report += "node kills:          " + std::to_string(result.kills) + "\n";

  const auto stats = client.stats();
  std::fprintf(stderr,
               "\ndiagnostics (timing-coloured, excluded from the determinism gate):\n"
               "  ok %llu  typed_errors %llu  ambiguous %llu\n"
               "  retries %llu  busy_backoffs %llu  failovers %llu  moved %llu\n"
               "  breaker trips %llu  skips %llu  deadline_exceeded %llu\n"
               "  chaos: %s\n",
               static_cast<unsigned long long>(result.ok),
               static_cast<unsigned long long>(result.typed_errors),
               static_cast<unsigned long long>(result.ambiguous),
               static_cast<unsigned long long>(stats.retries),
               static_cast<unsigned long long>(stats.busy_backoffs),
               static_cast<unsigned long long>(stats.failovers),
               static_cast<unsigned long long>(stats.moved_redirects),
               static_cast<unsigned long long>(stats.breaker_trips),
               static_cast<unsigned long long>(stats.breaker_skips),
               static_cast<unsigned long long>(stats.deadline_exceeded),
               chaos->stats().to_string().c_str());

  return spe::benchutil::CampaignResult{report,
                                        {{"silent corruptions", result.silent},
                                         {"untyped errors", result.untyped},
                                         {"deadline violations", result.deadline_violations},
                                         {"stuck futures", result.stuck_futures},
                                         {"verify mismatches", result.verify_mismatches}}};
}

}  // namespace

int main(int argc, char** argv) {
  return spe::benchutil::run_campaign(argc, argv, 0xC4A05, storm);
}
