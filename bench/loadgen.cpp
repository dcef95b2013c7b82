// Load generator for spe_server: N connections x pipeline depth D over the
// spe_net wire protocol, with end-to-end data verification. Every write
// carries a payload derived deterministically from (seed, address, version);
// every read response is compared byte-for-byte against the last
// acknowledged write to that address, so silent corruption anywhere in the
// client -> wire -> server -> shard -> wire -> client path is counted (on
// top of the frame CRC32 the decoder already enforces).
//
// Each connection owns a disjoint address stripe and never keeps two
// in-flight operations on the same address, which makes the expected-value
// bookkeeping exact even though the server completes across shards out of
// order.
//
// Closed loop by default (each connection keeps `depth` requests
// outstanding); `--rate R` switches to an open loop that paces sends at R
// ops/s per connection (outstanding still capped at depth). Stops after
// `--ops N` total operations or `--seconds S`, whichever is given
// (`--seconds` wins when both are).
//
// Cluster mode: `--cluster-seeds "a=h:p,b=h:p,..."` replaces --host/--port
// and routes every operation through a ClusterClient (consistent-hash
// owner selection, MOVED chasing, failover) — one synchronous operation at
// a time per connection, since correctness under membership churn is the
// point, not peak throughput. `--verify-only` skips the warm-up and instead
// reads every stripe address ONCE, expecting the version-1 image a previous
// `--write-pct 0` run with the same seed/stripe left behind — this is how
// the cluster smoke proves data survived a migration + kill -9.
//
// Flags: --host H --port P | --cluster-seeds SPEC
//        --connections N --depth D --ops N | --seconds S
//        --write-pct P (default 50) --stripe N (addresses per connection,
//        default 256) --seed S --rate R --metrics (scrape METRICS at exit)
//        --verify-only (cluster mode) --json PATH (write BENCH_throughput
//        style report; prints a delta line against the previous file)
//
// Exit status is nonzero on any corruption, protocol error, non-Ok
// response, worker failure, or a run that completed ZERO operations — the
// CI loopback smoke gates on it, and a silently idle run must not pass.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster_client.hpp"
#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using spe::obs::Histogram;

/// The deterministic block image for (seed, address, write-version). The
/// reader recomputes this from its bookkeeping and compares.
std::vector<std::uint8_t> expected_payload(std::uint64_t seed, std::uint64_t addr,
                                           std::uint64_t version, unsigned block_bytes) {
  std::vector<std::uint8_t> data(block_bytes);
  std::uint64_t word = 0;
  for (unsigned i = 0; i < block_bytes; ++i) {
    if (i % 8 == 0)
      word = spe::util::mix64(seed ^ (addr << 20) ^ (version << 1) ^ (i / 8));
    data[i] = static_cast<std::uint8_t>(word >> ((i % 8) * 8));
  }
  return data;
}

struct WorkerConfig {
  std::string host;
  std::uint16_t port = 0;
  std::vector<spe::cluster::NodeInfo> seeds;  ///< non-empty = cluster mode
  bool verify_only = false;
  unsigned index = 0;       ///< connection number (stripe selector)
  unsigned depth = 8;
  unsigned stripe = 256;    ///< addresses owned by this connection
  unsigned write_pct = 50;
  std::uint64_t seed = 1;
  std::uint64_t ops_quota = 0;  ///< 0 = unbounded (deadline-driven)
  double rate = 0.0;            ///< open-loop ops/s per connection; 0 = closed
  Clock::time_point deadline{Clock::time_point::max()};
};

struct WorkerStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t corruptions = 0;   ///< read payload != expected image
  std::uint64_t bad_status = 0;    ///< any non-Ok response
  std::uint64_t unknown_ids = 0;   ///< response id we never sent
  Histogram::Snapshot latency;
  std::string error;               ///< fatal exception, empty = clean
  spe::cluster::ClusterClient::Stats cluster;  ///< cluster mode only
};

struct Inflight {
  bool is_write = false;
  std::uint64_t addr = 0;
  std::uint64_t version = 0;  ///< version being written, or expected on read
  Clock::time_point sent;
};

/// One connection: warm-write the stripe, then run the closed/open loop.
WorkerStats run_worker(const WorkerConfig& cfg) {
  WorkerStats stats;
  Histogram latency;
  try {
    spe::net::Client client({.host = cfg.host, .port = cfg.port});
    client.connect();

    const std::uint64_t base = std::uint64_t{cfg.index} * cfg.stripe;
    // Warm-up (uncounted): version 1 of every address, so reads always have
    // a known image to check against. A server with a non-64B block size
    // rejects the very first write with a typed BadRequest — the warm-up
    // doubles as the handshake.
    const unsigned block_bytes = 64;
    std::unordered_map<std::uint64_t, std::uint64_t> committed;  // addr -> version
    for (unsigned i = 0; i < cfg.stripe; ++i) {
      const std::uint64_t addr = base + i;
      client.write_block(addr, expected_payload(cfg.seed, addr, 1, block_bytes));
      committed[addr] = 1;
    }

    std::unordered_map<std::uint64_t, Inflight> outstanding;  // request id -> op
    std::unordered_set<std::uint64_t> busy_addrs;
    std::uint64_t rng = spe::util::mix64(cfg.seed ^ (0xC0FFEEULL + cfg.index));
    std::uint64_t cursor = 0;
    std::uint64_t sent_ops = 0;
    auto next_send = Clock::now();
    const auto send_gap =
        cfg.rate > 0.0 ? std::chrono::nanoseconds(static_cast<std::uint64_t>(
                             1e9 / cfg.rate))
                       : std::chrono::nanoseconds(0);

    auto handle_response = [&](const spe::net::Frame& frame) {
      const auto now = Clock::now();
      const auto it = outstanding.find(frame.request_id);
      if (it == outstanding.end()) {
        ++stats.unknown_ids;
        return;
      }
      const Inflight op = it->second;
      outstanding.erase(it);
      busy_addrs.erase(op.addr);
      latency.record(now - op.sent);
      if (frame.status != spe::net::Status::Ok) {
        ++stats.bad_status;
        return;
      }
      if (op.is_write) {
        ++stats.writes;
        committed[op.addr] = op.version;
      } else {
        ++stats.reads;
        if (frame.payload != expected_payload(cfg.seed, op.addr, op.version, block_bytes))
          ++stats.corruptions;
      }
    };

    const bool quota_bound = cfg.ops_quota > 0;
    for (;;) {
      const bool can_send = (!quota_bound || sent_ops < cfg.ops_quota) &&
                            Clock::now() < cfg.deadline;
      if (!can_send && outstanding.empty()) break;

      if (can_send && outstanding.size() < cfg.depth &&
          (cfg.rate <= 0.0 || Clock::now() >= next_send)) {
        // Round-robin through the stripe, skipping addresses in flight so
        // at most one operation per address is ever outstanding.
        std::uint64_t addr = 0;
        bool found = false;
        for (unsigned probe = 0; probe < cfg.stripe; ++probe) {
          addr = base + (cursor + probe) % cfg.stripe;
          if (!busy_addrs.contains(addr)) {
            cursor = (cursor + probe + 1) % cfg.stripe;
            found = true;
            break;
          }
        }
        if (found) {
          rng = spe::util::mix64(rng);
          const bool is_write = rng % 100 < cfg.write_pct;
          Inflight op;
          op.is_write = is_write;
          op.addr = addr;
          op.sent = Clock::now();
          std::uint64_t id = 0;
          if (is_write) {
            op.version = committed[addr] + 1;
            id = client.send_write(
                addr, expected_payload(cfg.seed, addr, op.version, block_bytes));
          } else {
            op.version = committed[addr];
            id = client.send_read(addr);
          }
          outstanding.emplace(id, op);
          busy_addrs.insert(addr);
          ++sent_ops;
          if (cfg.rate > 0.0) next_send += send_gap;
          if (outstanding.size() < cfg.depth) continue;  // fill the window
        }
      }
      if (outstanding.empty()) {
        // Open-loop pacing gap with nothing in flight: recv would block on
        // a response that can never come, so just wait out the gap.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      handle_response(client.recv_response());
    }
  } catch (const std::exception& e) {
    stats.error = e.what();
  }
  stats.latency = latency.snapshot();
  return stats;
}

/// Cluster-mode connection: one synchronous operation at a time through a
/// ClusterClient. The client chases MOVED bounces and fails over dead
/// nodes internally, so any exception that escapes is a real failure.
WorkerStats run_cluster_worker(const WorkerConfig& cfg) {
  WorkerStats stats;
  Histogram latency;
  std::optional<spe::cluster::ClusterClient> maybe_client;
  try {
    spe::cluster::ClusterClientConfig ccfg;
    ccfg.seeds = cfg.seeds;
    // Widen the MOVED budget: during a pull the frozen blocks ping-pong
    // between source and destination until the whole batch commits.
    ccfg.op_retries = 64;
    maybe_client.emplace(ccfg);
    spe::cluster::ClusterClient& client = *maybe_client;
    client.connect();

    const std::uint64_t base = std::uint64_t{cfg.index} * cfg.stripe;
    const unsigned block_bytes = 64;

    if (cfg.verify_only) {
      // No warm-up: expect the version-1 image a previous --write-pct 0 run
      // with the same seed/stripe committed. Detects any block lost or
      // corrupted across the migrations / kills that happened in between.
      for (unsigned i = 0; i < cfg.stripe; ++i) {
        const std::uint64_t addr = base + i;
        const auto sent = Clock::now();
        const std::vector<std::uint8_t> data = client.read_block(addr);
        latency.record(Clock::now() - sent);
        ++stats.reads;
        if (data != expected_payload(cfg.seed, addr, 1, block_bytes))
          ++stats.corruptions;
      }
    } else {
      std::unordered_map<std::uint64_t, std::uint64_t> committed;
      for (unsigned i = 0; i < cfg.stripe; ++i) {
        const std::uint64_t addr = base + i;
        client.write_block(addr, expected_payload(cfg.seed, addr, 1, block_bytes));
        committed[addr] = 1;
      }
      std::uint64_t rng = spe::util::mix64(cfg.seed ^ (0xC0FFEEULL + cfg.index));
      std::uint64_t done = 0;
      const bool quota_bound = cfg.ops_quota > 0;
      while ((!quota_bound || done < cfg.ops_quota) &&
             Clock::now() < cfg.deadline) {
        rng = spe::util::mix64(rng);
        const std::uint64_t addr = base + rng % cfg.stripe;
        const bool is_write = spe::util::mix64(rng) % 100 < cfg.write_pct;
        const auto sent = Clock::now();
        if (is_write) {
          const std::uint64_t version = committed[addr] + 1;
          client.write_block(
              addr, expected_payload(cfg.seed, addr, version, block_bytes));
          committed[addr] = version;
          ++stats.writes;
        } else {
          const std::vector<std::uint8_t> data = client.read_block(addr);
          ++stats.reads;
          if (data != expected_payload(cfg.seed, addr, committed[addr], block_bytes))
            ++stats.corruptions;
        }
        latency.record(Clock::now() - sent);
        ++done;
      }
    }
  } catch (const std::exception& e) {
    stats.error = e.what();
  }
  if (maybe_client) stats.cluster = maybe_client->stats();
  stats.latency = latency.snapshot();
  return stats;
}

double us(std::chrono::nanoseconds ns) { return static_cast<double>(ns.count()) / 1000.0; }

}  // namespace

int main(int argc, char** argv) {
  spe::benchutil::Args args(argc, argv);
  const std::string host = args.str("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.uns("port", 0));
  const std::string cluster_seeds = args.str("cluster-seeds", "");
  const bool verify_only = args.flag("verify-only");
  const unsigned connections = std::max(1u, args.uns("connections", 4));
  const unsigned depth = std::max(1u, args.uns("depth", 8));
  const unsigned total_ops = args.uns("ops", 0);
  const unsigned seconds = args.uns("seconds", 0);
  const unsigned write_pct = std::min(100u, args.uns("write-pct", 50));
  const unsigned stripe = std::max(depth + 1, args.uns("stripe", 256));
  const std::uint64_t seed = args.uns("seed", 1);
  const unsigned rate = args.uns("rate", 0);
  const bool scrape_metrics = args.flag("metrics");
  const std::string json_path = args.str("json", "");
  if (!args.ok(stderr)) return 2;

  const bool cluster = !cluster_seeds.empty();
  std::vector<spe::cluster::NodeInfo> seeds;
  if (cluster) {
    spe::cluster::ClusterTopology seed_topo;
    if (!spe::cluster::parse_topology_spec(cluster_seeds, 0, seed_topo)) {
      std::fprintf(stderr, "loadgen: malformed --cluster-seeds '%s'\n",
                   cluster_seeds.c_str());
      return 2;
    }
    seeds = std::move(seed_topo.nodes);
  } else if (port == 0) {
    std::fprintf(stderr, "loadgen: --port or --cluster-seeds is required\n");
    return 2;
  }
  if (verify_only && !cluster) {
    std::fprintf(stderr, "loadgen: --verify-only needs --cluster-seeds\n");
    return 2;
  }
  if (!verify_only && total_ops == 0 && seconds == 0) {
    std::fprintf(stderr, "loadgen: give --ops N or --seconds S\n");
    return 2;
  }

  if (cluster)
    std::printf("loadgen: cluster [%s], %u conns, %u%% writes, stripe %u, seed %llu%s\n",
                cluster_seeds.c_str(), connections, write_pct, stripe,
                static_cast<unsigned long long>(seed),
                verify_only ? ", verify-only" : "");
  else
    std::printf("loadgen: %s:%u, %u conns x depth %u, %u%% writes, stripe %u, seed %llu, %s\n",
                host.c_str(), port, connections, depth, write_pct, stripe,
                static_cast<unsigned long long>(seed),
                rate > 0 ? ("open loop @" + std::to_string(rate) + " ops/s/conn").c_str()
                         : "closed loop");

  std::vector<WorkerConfig> cfgs(connections);
  std::vector<WorkerStats> stats(connections);
  const auto deadline = seconds > 0
                            ? Clock::now() + std::chrono::seconds(seconds)
                            : Clock::time_point::max();
  for (unsigned c = 0; c < connections; ++c) {
    cfgs[c] = WorkerConfig{.host = host,
                           .port = port,
                           .seeds = seeds,
                           .verify_only = verify_only,
                           .index = c,
                           .depth = depth,
                           .stripe = stripe,
                           .write_pct = write_pct,
                           .seed = seed,
                           .ops_quota = seconds > 0 ? 0
                                                    : (total_ops + connections - 1) /
                                                          connections,
                           .rate = static_cast<double>(rate),
                           .deadline = deadline};
  }

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (unsigned c = 0; c < connections; ++c)
    threads.emplace_back([&, c, cluster] {
      stats[c] = cluster ? run_cluster_worker(cfgs[c]) : run_worker(cfgs[c]);
    });
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  WorkerStats total;
  Histogram::Snapshot merged;
  unsigned failed_workers = 0;
  for (unsigned c = 0; c < connections; ++c) {
    const WorkerStats& s = stats[c];
    total.reads += s.reads;
    total.writes += s.writes;
    total.corruptions += s.corruptions;
    total.bad_status += s.bad_status;
    total.unknown_ids += s.unknown_ids;
    merged += s.latency;
    if (!s.error.empty()) {
      ++failed_workers;
      std::fprintf(stderr, "loadgen: worker %u failed: %s\n", c, s.error.c_str());
    }
  }
  const std::uint64_t ops = total.reads + total.writes;

  std::printf("loadgen: %llu ops (%llu reads / %llu writes) in %.2fs -> %.1f kops/s\n",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(total.reads),
              static_cast<unsigned long long>(total.writes), elapsed,
              static_cast<double>(ops) / elapsed / 1000.0);
  std::printf("loadgen: latency p50=%.1fus p95=%.1fus p99=%.1fus mean=%.1fus\n",
              us(merged.p50()), us(merged.p95()), us(merged.p99()), us(merged.mean()));
  std::printf("loadgen: corruption=%llu bad_status=%llu unknown_ids=%llu\n",
              static_cast<unsigned long long>(total.corruptions),
              static_cast<unsigned long long>(total.bad_status),
              static_cast<unsigned long long>(total.unknown_ids));
  if (cluster) {
    spe::cluster::ClusterClient::Stats csum;
    for (const WorkerStats& s : stats) {
      csum.moved_redirects += s.cluster.moved_redirects;
      csum.failovers += s.cluster.failovers;
      csum.topology_refreshes += s.cluster.topology_refreshes;
      csum.retries += s.cluster.retries;
      csum.busy_backoffs += s.cluster.busy_backoffs;
      csum.breaker_trips += s.cluster.breaker_trips;
      csum.breaker_skips += s.cluster.breaker_skips;
      csum.deadline_exceeded += s.cluster.deadline_exceeded;
      csum.ambiguous_results += s.cluster.ambiguous_results;
    }
    std::printf(
        "loadgen: cluster moved=%llu failovers=%llu refreshes=%llu retries=%llu "
        "busy=%llu breaker_trips=%llu breaker_skips=%llu deadline_exceeded=%llu "
        "ambiguous=%llu\n",
        static_cast<unsigned long long>(csum.moved_redirects),
        static_cast<unsigned long long>(csum.failovers),
        static_cast<unsigned long long>(csum.topology_refreshes),
        static_cast<unsigned long long>(csum.retries),
        static_cast<unsigned long long>(csum.busy_backoffs),
        static_cast<unsigned long long>(csum.breaker_trips),
        static_cast<unsigned long long>(csum.breaker_skips),
        static_cast<unsigned long long>(csum.deadline_exceeded),
        static_cast<unsigned long long>(csum.ambiguous_results));
  }

  if (scrape_metrics && !cluster) {
    try {
      spe::net::Client client({.host = host, .port = port});
      client.connect();
      std::printf("\n--- server metrics export (Prometheus text) ---\n%s",
                  client.metrics().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "loadgen: metrics scrape failed: %s\n", e.what());
      return 1;
    }
  }

  // Consolidated verdict. Every failure path is reported above; a run that
  // completed nothing is a failure too — "no ops, no errors" must not read
  // as success to CI.
  const bool failed = failed_workers > 0 || total.corruptions > 0 ||
                      total.bad_status > 0 || total.unknown_ids > 0 || ops == 0;
  if (failed) {
    std::fprintf(stderr,
                 "loadgen FAIL: ops=%llu failed_workers=%u corruption=%llu "
                 "bad_status=%llu unknown_ids=%llu\n",
                 static_cast<unsigned long long>(ops), failed_workers,
                 static_cast<unsigned long long>(total.corruptions),
                 static_cast<unsigned long long>(total.bad_status),
                 static_cast<unsigned long long>(total.unknown_ids));
    return 1;
  }
  if (!json_path.empty()) {
    spe::benchutil::ThroughputReport report;
    report.source = cluster ? "loadgen-cluster" : "loadgen";
    report.config = std::to_string(connections) + "c depth=" +
                    std::to_string(depth) + " write_pct=" +
                    std::to_string(write_pct) + " stripe=" + std::to_string(stripe);
    report.ops = ops;
    report.ops_per_sec = static_cast<double>(ops) / elapsed;
    report.bytes_per_cycle = spe::benchutil::bytes_per_cycle(
        report.ops_per_sec, /*bytes_per_op=*/64);
    report.p50_us = us(merged.p50());
    report.p95_us = us(merged.p95());
    report.p99_us = us(merged.p99());
    if (!spe::benchutil::write_throughput_json(json_path, report)) return 1;
  }
  std::printf("loadgen OK\n");
  return 0;
}
