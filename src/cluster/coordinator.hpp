#pragma once
// ClusterCoordinator: the per-node brain of the SPE cluster (src/cluster).
// It plugs into net::Server through the ClusterHandler hook and does four
// jobs:
//
//   routing      every READ/WRITE is ownership-checked on the event loop
//                (fast_path): frozen-outgoing and remotely-owned addresses
//                bounce Status::Moved with the owner's NodeInfo as payload;
//                locally-owned ones fall through to normal dispatch.
//   topology     TOPOLOGY with an empty payload answers the current
//                epoch-stamped member list; a non-empty payload proposes a
//                newer topology, which is journaled (ADOPT) and installed
//                iff its epoch is strictly newer.
//   migration    MIGRATE_RANGE drives the FREEZE / PULL / EXPORT / UNFREEZE
//                protocol documented in migration.hpp. Pull runs on a
//                completion thread: it exports each block from the source
//                peer (decrypted there under the source device fingerprint),
//                writes it into the local MemoryService (re-encrypted under
//                THIS device's fingerprint), checkpoints the service, and
//                only then journals the commit — so a kill -9 at any record
//                boundary recovers to fully-source or fully-destination
//                ownership.
//   metrics      spe_cluster_* counters/gauges merged into the server's
//                METRICS export.
//
// Thread model: fast_path runs on the server's event loop and only takes
// the coordinator mutex for map lookups; slow_path runs on completion
// threads and holds the mutex across journal appends (fsync) but NEVER
// across peer network I/O.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "cluster/migration.hpp"
#include "cluster/topology.hpp"
#include "net/server.hpp"
#include "runtime/memory_service.hpp"

namespace spe::cluster {

struct CoordinatorConfig {
  std::string node_name;        ///< this node's ring identity (must be in the topology)
  std::string journal_path;     ///< migration journal; "" = in-memory (tests)
  std::string checkpoint_path;  ///< service checkpoint written before each
                                ///< migration commit; "" = skip (volatile dest)
  std::size_t pull_batch = 64;  ///< addresses per Export round-trip
};

class ClusterCoordinator final : public net::ClusterHandler {
public:
  /// `service` and the topology's view of this node must outlive the
  /// coordinator. Throws std::invalid_argument when node_name is not a
  /// member of `initial`.
  ClusterCoordinator(runtime::MemoryService& service, ClusterTopology initial,
                     CoordinatorConfig config);

  /// Replays the journal (truncating any torn tail) and, when a newer
  /// topology was adopted before the crash, installs it over `initial`.
  /// Call once before the server starts. Returns the replay/rollback
  /// classification the recovery tests pin.
  MigrationRecovery recover();

  // --- net::ClusterHandler ---------------------------------------------------
  [[nodiscard]] Verdict fast_path(const net::Frame& request,
                                  net::Frame& response) override;
  [[nodiscard]] net::Frame slow_path(net::Frame&& request) override;
  void fill_metrics(obs::MetricsRegistry& registry) const override;

  [[nodiscard]] const std::string& node_name() const noexcept {
    return config_.node_name;
  }
  [[nodiscard]] ClusterTopology topology() const;
  /// This node's NodeInfo under the current topology.
  [[nodiscard]] NodeInfo self() const;

  /// Test access. The journal is guarded by the coordinator mutex — do not
  /// append concurrently with a serving server.
  [[nodiscard]] MigrationJournal& journal() noexcept { return journal_; }

private:
  /// Where an address is served right now, overlays included.
  struct Route {
    bool local = false;
    NodeInfo owner;  ///< meaningful when !local
  };
  [[nodiscard]] Route route_locked(std::uint64_t addr) const;

  [[nodiscard]] net::Frame handle_topology(const net::Frame& request);
  [[nodiscard]] net::Frame handle_migrate(const net::Frame& request);
  [[nodiscard]] net::Frame do_freeze(const net::Frame& request, const MigrateSpec& spec);
  [[nodiscard]] net::Frame do_unfreeze(const net::Frame& request, const MigrateSpec& spec);
  [[nodiscard]] net::Frame do_export(const net::Frame& request, const MigrateSpec& spec);
  [[nodiscard]] net::Frame do_pull(const net::Frame& request, const MigrateSpec& spec);
  [[nodiscard]] net::Frame do_checkpoint(const net::Frame& request);

  runtime::MemoryService& service_;
  CoordinatorConfig config_;

  mutable std::mutex mutex_;  ///< guards topology_, ring_, journal_
  ClusterTopology topology_;
  HashRing ring_;
  MigrationJournal journal_;

  struct Counters {
    std::atomic<std::uint64_t> moved_bounced{0};
    std::atomic<std::uint64_t> blocks_exported{0};
    std::atomic<std::uint64_t> blocks_pulled{0};
    std::atomic<std::uint64_t> blocks_skipped{0};
    std::atomic<std::uint64_t> migrate_failures{0};
    std::atomic<std::uint64_t> topology_adoptions{0};
    std::atomic<std::uint64_t> topology_rejected{0};
  };
  mutable Counters counters_;
};

}  // namespace spe::cluster
