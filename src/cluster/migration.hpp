#pragma once
// Crash-safe device-bound migration for the SPE cluster (src/cluster).
//
// Moving a block between nodes is not a byte copy: the block is ciphered
// against the SOURCE crossbar's device fingerprint, so migration is
// decrypt-on-source / re-encrypt-on-destination. The cluster runs it as a
// three-step admin-driven protocol, destination-pull:
//
//   FREEZE   (source)      every address in the range is journaled as
//                          outgoing and bounces reads AND writes with
//                          MOVED(dest) — the source copy is immutable for
//                          the rest of the migration, so the destination
//                          can never commit a stale image.
//   PULL     (destination) per block: journal in_begin -> read from the
//                          source over the wire (the source SPECU decrypts
//                          under its fingerprint; migration reads bypass
//                          the freeze) -> write into the local service
//                          (the local SPECU re-encrypts under THIS device's
//                          fingerprint, journaling pulses in the existing
//                          per-device intent journal) -> journal in_copied
//                          -> checkpoint the service -> journal in_commit.
//                          Committed blocks enter the incoming overlay and
//                          are served here.
//   ADOPT    (everyone)    the new topology epoch is pushed to all nodes;
//                          ring ownership takes over and the overlays for
//                          that epoch are dropped.
//
// A kill -9 at ANY point leaves each block either fully source-owned
// (no in_commit journaled: the destination discards the partial copy and
// the admin either re-pulls or unfreezes) or fully destination-owned
// (in_commit durable: the block is in the destination checkpoint) — never
// torn. The MigrationJournal below is the cluster-level write-ahead log
// that makes this classification possible; it composes with the
// device-level intent journal (src/core/intent_journal), which protects
// the pulse sequences inside each single-device write.
//
// The journal is an append-only CRC-framed file: every record is
// (u32 body length, u32 CRC32, body), fsync'd before the operation it
// permits proceeds. load() accepts a torn tail (a crash mid-append) by
// truncating to the last valid record — exactly the semantics of the
// snvmm_io image loader it mirrors.

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cluster/topology.hpp"

namespace spe::cluster {

inline constexpr std::size_t kMaxMigrateAddrs = std::size_t{1} << 16;

/// Wire payload of a MIGRATE_RANGE request.
struct MigrateSpec {
  enum class Mode : std::uint8_t {
    Freeze = 1,    ///< to the source: freeze addrs, bounce MOVED(peer)
    Pull = 2,      ///< to the destination: copy addrs from peer
    Unfreeze = 3,  ///< to the source: abandon the migration, serve again
    Export = 4,    ///< destination -> source during Pull: ship block images
                   ///< (decrypted under the source fingerprint, bypassing
                   ///< the freeze bounce)
    Checkpoint = 5,  ///< admin: checkpoint the service to its configured
                     ///< path NOW (epoch/peer/addrs ignored) — cluster_ctl
                     ///< uses it to make client writes durable before a
                     ///< planned kill or migration
  };
  Mode mode = Mode::Freeze;
  std::uint64_t epoch = 0;  ///< the topology epoch this migration prepares
  NodeInfo peer;            ///< Freeze: destination; Pull: source
  std::vector<std::uint64_t> addrs;
};

[[nodiscard]] std::vector<std::uint8_t> encode_migrate_spec(const MigrateSpec& spec);
[[nodiscard]] bool decode_migrate_spec(std::span<const std::uint8_t> in,
                                       MigrateSpec& out);

/// One block image in an Export response. `present` is false for addresses
/// the source never wrote (nothing to copy — the destination skips them).
struct ExportedBlock {
  std::uint64_t addr = 0;
  bool present = false;
  std::vector<std::uint8_t> data;  ///< block_bytes long when present
};

[[nodiscard]] std::vector<std::uint8_t> encode_export(
    std::span<const ExportedBlock> blocks);
/// `block_bytes` pins the expected image size (length confusion on this
/// path would write a wrong-sized block into the destination array).
[[nodiscard]] bool decode_export(std::span<const std::uint8_t> in,
                                 std::size_t block_bytes,
                                 std::vector<ExportedBlock>& out);

/// In-memory migration state rebuilt from (and mutated through) the journal.
struct MigrationState {
  struct Pending {
    NodeInfo peer;
    std::uint64_t epoch = 0;
  };
  std::uint64_t adopted_epoch = 0;
  /// Topology bytes of the newest ADOPT record (empty: none journaled).
  std::vector<std::uint8_t> adopted_topology;
  std::map<std::uint64_t, Pending> outgoing;  ///< frozen here, owned-by-peer soon
  std::map<std::uint64_t, Pending> incoming_inflight;  ///< begun, not committed
  std::map<std::uint64_t, Pending> incoming_committed; ///< durable here, served
};

/// What load() concluded about each address the journal mentions — the
/// replay/rollback classification the recovery tests pin.
struct MigrationRecovery {
  std::size_t records = 0;
  std::size_t truncated_bytes = 0;  ///< torn tail dropped by load()
  std::vector<std::uint64_t> forward;   ///< committed incoming: destination owns
  std::vector<std::uint64_t> rollback;  ///< in-flight incoming discarded: source owns
  std::vector<std::uint64_t> frozen;    ///< outgoing still bouncing MOVED
};

class MigrationJournal {
public:
  /// Opens (creating if absent) the journal at `path`. An empty path makes
  /// an in-memory journal (no durability — single-process tests and
  /// non-cluster servers).
  explicit MigrationJournal(std::string path);
  ~MigrationJournal();

  MigrationJournal(const MigrationJournal&) = delete;
  MigrationJournal& operator=(const MigrationJournal&) = delete;

  /// Replays the file into state() and truncates any torn tail. Call once
  /// before the first append; a missing/empty file yields an empty state.
  /// Throws std::runtime_error on an unreadable file or bad magic.
  MigrationRecovery load();

  // Appends (each fsync'd before returning, then the kill hook fires).
  void out_freeze(std::span<const std::uint64_t> addrs, const NodeInfo& dest,
                  std::uint64_t epoch);
  void out_unfreeze(std::span<const std::uint64_t> addrs);
  void in_begin(std::uint64_t addr, const NodeInfo& source, std::uint64_t epoch);
  void in_copied(std::uint64_t addr);
  void in_commit(std::span<const std::uint64_t> addrs);
  void adopt(const ClusterTopology& topology);

  [[nodiscard]] const MigrationState& state() const noexcept { return state_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Kill-point hook, fired after every durable append — the migration
  /// recovery tests snapshot the journal file here, the same pattern as
  /// BankShard::set_crash_hook. Pass nullptr to clear.
  void set_kill_hook(std::function<void()> hook) { kill_hook_ = std::move(hook); }

private:
  enum class RecordType : std::uint8_t {
    OutFreeze = 1,
    OutUnfreeze = 2,
    InBegin = 3,
    InCopied = 4,
    InCommit = 5,
    Adopt = 6,
  };

  void append(RecordType type, const std::vector<std::uint8_t>& body);
  /// Applies one parsed record to state_; false = malformed body.
  [[nodiscard]] bool apply(RecordType type, std::span<const std::uint8_t> body);

  std::string path_;
  int fd_ = -1;  ///< -1 for the in-memory journal
  MigrationState state_;
  std::function<void()> kill_hook_;
};

}  // namespace spe::cluster
