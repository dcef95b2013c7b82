#include "cluster/coordinator.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "net/client.hpp"

namespace spe::cluster {

using net::Frame;
using net::Opcode;
using net::Status;

namespace {
/// Socket I/O bound on a migration pull from the source node.
constexpr std::chrono::milliseconds kPeerIoDeadline{10'000};
}  // namespace

ClusterCoordinator::ClusterCoordinator(runtime::MemoryService& service,
                                       ClusterTopology initial,
                                       CoordinatorConfig config)
    : service_(service),
      config_(std::move(config)),
      topology_(std::move(initial)),
      ring_(topology_.ring()),
      journal_(config_.journal_path) {
  if (config_.node_name.empty() || topology_.find(config_.node_name) == nullptr)
    throw std::invalid_argument(
        "spe::cluster: node '" + config_.node_name +
        "' is not a member of the initial topology");
  if (config_.pull_batch == 0) config_.pull_batch = 1;
}

MigrationRecovery ClusterCoordinator::recover() {
  std::lock_guard lock(mutex_);
  MigrationRecovery recovery = journal_.load();
  const MigrationState& state = journal_.state();
  if (!state.adopted_topology.empty()) {
    ClusterTopology adopted;
    if (decode_topology(state.adopted_topology, adopted) &&
        adopted.epoch >= topology_.epoch) {
      topology_ = std::move(adopted);
      ring_ = topology_.ring();
    }
  }
  return recovery;
}

ClusterTopology ClusterCoordinator::topology() const {
  std::lock_guard lock(mutex_);
  return topology_;
}

NodeInfo ClusterCoordinator::self() const {
  std::lock_guard lock(mutex_);
  if (const NodeInfo* node = topology_.find(config_.node_name)) return *node;
  // A node that has left the cluster keeps running to drain its frozen
  // ranges; it routes everything away but still names itself in Export.
  NodeInfo ghost;
  ghost.name = config_.node_name;
  return ghost;
}

ClusterCoordinator::Route ClusterCoordinator::route_locked(std::uint64_t addr) const {
  const MigrationState& state = journal_.state();
  Route route;
  if (const auto out = state.outgoing.find(addr); out != state.outgoing.end()) {
    route.owner = out->second.peer;  // frozen: immutable here, pull in flight
    return route;
  }
  if (state.incoming_committed.contains(addr)) {
    route.local = true;  // durable here, epoch not yet adopted cluster-wide
    return route;
  }
  const std::string& owner_name = ring_.owner(addr);
  if (owner_name == config_.node_name) {
    route.local = true;
    return route;
  }
  if (const NodeInfo* node = topology_.find(owner_name)) route.owner = *node;
  return route;
}

net::ClusterHandler::Verdict ClusterCoordinator::fast_path(const Frame& request,
                                                           Frame& response) {
  switch (request.opcode) {
    case Opcode::Read:
    case Opcode::Write: {
      std::uint64_t addr = 0;
      net::WireErrorCode err = net::WireErrorCode::None;
      if (request.opcode == Opcode::Read) {
        if (!net::parse_read_request(request, addr, err)) return Verdict::NotMine;
      } else {
        std::span<const std::uint8_t> data;
        if (!net::parse_write_request(request, addr, data, err))
          return Verdict::NotMine;
      }
      Route route;
      {
        std::lock_guard lock(mutex_);
        route = route_locked(addr);
      }
      if (route.local) return Verdict::NotMine;
      counters_.moved_bounced.fetch_add(1, std::memory_order_relaxed);
      response = net::make_moved_response(request.opcode, request.request_id,
                                          encode_node(route.owner));
      return Verdict::Respond;
    }
    case Opcode::Topology:
      if (request.payload.empty()) {
        // Fetch: snapshot under the lock, no I/O — safe on the event loop.
        std::vector<std::uint8_t> bytes;
        {
          std::lock_guard lock(mutex_);
          bytes = encode_topology(topology_);
        }
        response = net::make_topology_response(request.request_id, bytes);
        return Verdict::Respond;
      }
      return Verdict::Defer;  // propose: journals an ADOPT (fsync)
    case Opcode::MigrateRange:
      return Verdict::Defer;
    case Opcode::Ping:
    case Opcode::Scrub:
    case Opcode::Metrics:
      return Verdict::NotMine;
  }
  return Verdict::NotMine;
}

Frame ClusterCoordinator::slow_path(Frame&& request) {
  Frame response;
  switch (request.opcode) {
    case Opcode::Topology:
      response = handle_topology(request);
      break;
    case Opcode::MigrateRange:
      response = handle_migrate(request);
      break;
    default:
      response = net::make_error_response(request, Status::Internal,
                                          "opcode is not deferrable");
      break;
  }
  return response;
}

Frame ClusterCoordinator::handle_topology(const Frame& request) {
  ClusterTopology proposed;
  if (!decode_topology(request.payload, proposed))
    return net::make_error_response(request, Status::BadRequest,
                                    "malformed topology payload");
  std::lock_guard lock(mutex_);
  if (proposed.epoch > topology_.epoch) {
    journal_.adopt(proposed);  // fsync'd before the ring switches
    topology_ = std::move(proposed);
    ring_ = topology_.ring();
    counters_.topology_adoptions.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.topology_rejected.fetch_add(1, std::memory_order_relaxed);
  }
  // Either way the response is the truth this node now holds — a proposer
  // with a stale epoch learns the newer membership from it.
  return net::make_topology_response(request.request_id,
                                     encode_topology(topology_));
}

Frame ClusterCoordinator::handle_migrate(const Frame& request) {
  MigrateSpec spec;
  if (!decode_migrate_spec(request.payload, spec))
    return net::make_error_response(request, Status::BadRequest,
                                    "malformed migrate spec");
  try {
    switch (spec.mode) {
      case MigrateSpec::Mode::Freeze: return do_freeze(request, spec);
      case MigrateSpec::Mode::Unfreeze: return do_unfreeze(request, spec);
      case MigrateSpec::Mode::Export: return do_export(request, spec);
      case MigrateSpec::Mode::Pull: return do_pull(request, spec);
      case MigrateSpec::Mode::Checkpoint: return do_checkpoint(request);
    }
  } catch (const std::exception& e) {
    counters_.migrate_failures.fetch_add(1, std::memory_order_relaxed);
    return net::make_error_response(request, Status::Internal, e.what());
  }
  return net::make_error_response(request, Status::BadRequest, "bad migrate mode");
}

Frame ClusterCoordinator::do_freeze(const Frame& request, const MigrateSpec& spec) {
  std::lock_guard lock(mutex_);
  journal_.out_freeze(spec.addrs, spec.peer, spec.epoch);
  return net::make_migrate_response(request.request_id, spec.addrs.size(), 0, 0);
}

Frame ClusterCoordinator::do_unfreeze(const Frame& request, const MigrateSpec& spec) {
  std::lock_guard lock(mutex_);
  journal_.out_unfreeze(spec.addrs);
  return net::make_migrate_response(request.request_id, spec.addrs.size(), 0, 0);
}

Frame ClusterCoordinator::do_export(const Frame& request, const MigrateSpec& spec) {
  const std::vector<std::uint64_t> resident = service_.resident_blocks();
  const std::unordered_set<std::uint64_t> resident_set(resident.begin(),
                                                       resident.end());
  std::vector<ExportedBlock> blocks;
  blocks.reserve(spec.addrs.size());
  for (const std::uint64_t addr : spec.addrs) {
    ExportedBlock block;
    block.addr = addr;
    if (resident_set.contains(addr)) {
      try {
        // Decrypts under THIS device's fingerprint; the destination
        // re-encrypts under its own on write. Bypasses the freeze bounce by
        // construction (only client READ/WRITE frames are routed).
        block.data = service_.read(addr);
        block.present = true;
        counters_.blocks_exported.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception&) {
        // Quarantined / uncorrectable: there is no data to move. Exported
        // as absent so the destination skips it instead of aborting the
        // whole range; the failure counter makes the loss visible.
        counters_.migrate_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
    blocks.push_back(std::move(block));
  }
  Frame response;
  response.opcode = Opcode::MigrateRange;
  response.request_id = request.request_id;
  response.payload = encode_export(blocks);
  return response;
}

Frame ClusterCoordinator::do_pull(const Frame& request, const MigrateSpec& spec) {
  net::ClientConfig peer_config;
  peer_config.host = spec.peer.host;
  peer_config.port = spec.peer.port;
  peer_config.io_deadline = kPeerIoDeadline;
  net::Client peer(peer_config);
  try {
    peer.connect();
  } catch (const net::NetError& e) {
    counters_.migrate_failures.fetch_add(1, std::memory_order_relaxed);
    return net::make_error_response(request, Status::Internal, e.what());
  }

  const NodeInfo self_info = self();
  std::vector<std::uint64_t> pulled;
  pulled.reserve(spec.addrs.size());
  std::uint64_t skipped = 0;
  for (std::size_t off = 0; off < spec.addrs.size(); off += config_.pull_batch) {
    const std::size_t end = std::min(off + config_.pull_batch, spec.addrs.size());
    MigrateSpec export_spec;
    export_spec.mode = MigrateSpec::Mode::Export;
    export_spec.epoch = spec.epoch;
    export_spec.peer = self_info;
    export_spec.addrs.assign(spec.addrs.begin() + static_cast<std::ptrdiff_t>(off),
                             spec.addrs.begin() + static_cast<std::ptrdiff_t>(end));
    Frame reply;
    try {
      reply = peer.call(net::make_migrate_request(0, encode_migrate_spec(export_spec)));
    } catch (const net::NetError& e) {
      counters_.migrate_failures.fetch_add(1, std::memory_order_relaxed);
      return net::make_error_response(request, Status::Internal, e.what());
    }
    if (reply.status != Status::Ok)
      return net::make_error_response(
          request, Status::Internal,
          std::string("export refused by peer: ") + net::to_string(reply.status));
    std::vector<ExportedBlock> blocks;
    if (!decode_export(reply.payload, service_.block_bytes(), blocks))
      return net::make_error_response(request, Status::Internal,
                                      "malformed export payload from peer");
    for (ExportedBlock& block : blocks) {
      if (!block.present) {
        ++skipped;
        counters_.blocks_skipped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      {
        std::lock_guard lock(mutex_);
        journal_.in_begin(block.addr, spec.peer, spec.epoch);
      }
      service_.write(block.addr, block.data);  // re-encrypt under local device
      {
        std::lock_guard lock(mutex_);
        journal_.in_copied(block.addr);
      }
      pulled.push_back(block.addr);
      counters_.blocks_pulled.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Durability order: the pulled blocks must be in the checkpoint BEFORE the
  // commit record exists, so a kill -9 after commit still finds the data.
  if (!pulled.empty() && !config_.checkpoint_path.empty())
    service_.checkpoint_file(config_.checkpoint_path);
  if (!pulled.empty()) {
    std::lock_guard lock(mutex_);
    journal_.in_commit(pulled);
  }
  return net::make_migrate_response(request.request_id, pulled.size(), skipped, 0);
}

Frame ClusterCoordinator::do_checkpoint(const Frame& request) {
  if (config_.checkpoint_path.empty())
    return net::make_error_response(request, Status::BadRequest,
                                    "node has no checkpoint path configured");
  service_.checkpoint_file(config_.checkpoint_path);
  return net::make_migrate_response(request.request_id, 0, 0, 0);
}

void ClusterCoordinator::fill_metrics(obs::MetricsRegistry& registry) const {
  const auto get = [](const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  registry
      .counter("spe_cluster_moved_total",
               "requests bounced with MOVED to their owning node")
      .add(get(counters_.moved_bounced));
  registry
      .counter("spe_cluster_blocks_exported_total",
               "blocks shipped out to a pulling destination")
      .add(get(counters_.blocks_exported));
  registry
      .counter("spe_cluster_blocks_pulled_total",
               "blocks pulled in and re-encrypted under this device")
      .add(get(counters_.blocks_pulled));
  registry
      .counter("spe_cluster_blocks_skipped_total",
               "pull addresses absent on the source")
      .add(get(counters_.blocks_skipped));
  registry
      .counter("spe_cluster_migrate_failures_total",
               "migration steps that failed (connect, export, read)")
      .add(get(counters_.migrate_failures));
  registry
      .counter("spe_cluster_topology_adoptions_total",
               "newer topologies journaled and installed")
      .add(get(counters_.topology_adoptions));
  registry
      .counter("spe_cluster_topology_rejected_total",
               "topology proposals at a stale or equal epoch")
      .add(get(counters_.topology_rejected));
  std::lock_guard lock(mutex_);
  const MigrationState& state = journal_.state();
  registry.gauge("spe_cluster_epoch", "topology epoch this node serves")
      .set(static_cast<double>(topology_.epoch));
  registry.gauge("spe_cluster_nodes", "members in the current topology")
      .set(static_cast<double>(topology_.nodes.size()));
  registry
      .gauge("spe_cluster_frozen_blocks", "outgoing addresses bouncing MOVED")
      .set(static_cast<double>(state.outgoing.size()));
  registry
      .gauge("spe_cluster_committed_blocks",
             "incoming addresses committed ahead of epoch adoption")
      .set(static_cast<double>(state.incoming_committed.size()));
}

}  // namespace spe::cluster
