#pragma once
// Length-prefixed binary wire protocol for the SPE memory service
// (src/net, "spe_net"). One frame shape serves both directions: requests
// carry status Ok, responses echo the request id and report the outcome in
// the status byte. The payload is covered by a CRC32 (same IEEE polynomial
// as the snvmm_io v2 image format), so a bit flipped anywhere between
// encode and decode surfaces as a typed CrcMismatch — never as silently
// corrupt block data.
//
// Frame layout (little-endian, 24-byte header + payload):
//
//   offset size field
//        0    4 magic "SPW1"
//        4    1 version (kWireVersion; any other value is BadVersion)
//        5    1 opcode (Opcode)
//        6    1 status (Status; Ok on requests)
//        7    1 flags (kKnownFlags; any other bit is ReservedNonzero)
//        8    8 request id (echoed verbatim in the response)
//       16    4 payload length in bytes
//       20    4 CRC32 over the payload bytes
//       24    n payload
//
// Flags announce extensions that lead the payload, in this order:
//   bit 0 deadline: u64 milliseconds of budget the sender has left for
//         the op (8 bytes).
//   bit 1 tenant: u32 tenant id + u64 authentication token (12 bytes, see
//         src/tenant/token.hpp). A frame without it runs as the default
//         tenant.
// Extension bytes count toward the payload length and the CRC; the decoder
// strips them into Frame::deadline_ms / has_tenant / tenant_id /
// tenant_token, so opcode payload parsers never see them.
//
// The version byte exists so that a future incompatible change is detected
// on a peer's first five bytes instead of being misparsed.
//
// Payloads by opcode:
//   PING     request: arbitrary bytes      response: echoed bytes
//   READ     request: u64 block address    response: block data
//   WRITE    request: u64 address + data   response: empty
//   SCRUB    request: empty                response: u64 blocks scrubbed
//   METRICS  request: u8 format (0=Prometheus, 1=JSON), or empty for
//            Prometheus                    response: rendered export text
//   TOPOLOGY request: empty = fetch, or a serialised ClusterTopology
//            to propose/adopt             response: serialised topology
//   MIGRATE_RANGE request: serialised MigrateSpec (src/cluster)
//                                         response: u64 migrated/skipped/failed
//   ROTATE_KEY request: u32 tenant id whose key domain to rotate
//                                         response: u64 new epoch + u64 blocks
//                                         scheduled for re-encryption
//   any error response: human-readable reason string
//   MOVED status response: serialised owner NodeInfo (src/cluster) — the
//            address now lives on another cluster node; retry there.
//   BUSY status response: u64 retry-after milliseconds + reason string.
//
// Decoding is incremental and truncation-safe: FrameDecoder::feed() buffers
// arbitrary byte chunks and next() yields complete frames, NeedMore while a
// frame is still partial, or a typed WireErrorCode — malformed input can
// never throw or read out of bounds, it only poisons the stream (every
// later next() repeats the same error, which is what a server wants before
// closing the connection).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace spe::net {

inline constexpr std::uint8_t kWireVersion = 4;
inline constexpr std::size_t kHeaderBytes = 24;
inline constexpr std::uint8_t kMagic[4] = {'S', 'P', 'W', '1'};
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{1} << 20;

/// Header flags (byte 7); every bit outside kKnownFlags is reserved.
inline constexpr std::uint8_t kFlagDeadline = 0x01;
inline constexpr std::uint8_t kFlagTenant = 0x02;
inline constexpr std::uint8_t kKnownFlags = kFlagDeadline | kFlagTenant;
/// Encoded size of the deadline extension the kFlagDeadline flag announces.
inline constexpr std::size_t kDeadlineExtBytes = 8;
/// Encoded size of the tenant extension (u32 tenant id + u64 token).
inline constexpr std::size_t kTenantExtBytes = 12;

enum class Opcode : std::uint8_t {
  Ping = 1,
  Read = 2,
  Write = 3,
  Scrub = 4,
  Metrics = 5,
  Topology = 6,      ///< cluster topology fetch / propose
  MigrateRange = 7,  ///< device-bound block migration batch
  RotateKey = 8,     ///< admin — rotate a tenant's key domain
};
[[nodiscard]] bool opcode_valid(std::uint8_t raw) noexcept;
[[nodiscard]] const char* to_string(Opcode op) noexcept;

/// Response outcome, mapped from the runtime error taxonomy
/// (service_config.hpp) plus the server's own admission decisions.
enum class Status : std::uint8_t {
  Ok = 0,
  BadRequest = 1,     ///< malformed payload for the opcode
  Overloaded = 2,     ///< queue backpressure or per-connection in-flight cap
  Stopped = 3,        ///< service stopping / stopped (ServiceStoppedError)
  Uncorrectable = 4,  ///< UncorrectableFaultError: block quarantined
  Quarantined = 5,    ///< QuarantinedBlockError: rewrite to remap
  Torn = 6,           ///< TornBlockError: crash-torn block
  Timeout = 7,        ///< server-side request deadline expired
  Internal = 8,       ///< anything else; payload carries the reason
  Moved = 9,          ///< address owned by another node (payload names it)
  Busy = 10,          ///< load shed — payload leads with u64 retry-after ms
  QuotaExceeded = 11, ///< tenant resident-block quota exhausted
  AccessDenied = 12,  ///< bad token, cross-tenant access, or admin refused
};
[[nodiscard]] bool status_valid(std::uint8_t raw) noexcept;
[[nodiscard]] const char* to_string(Status status) noexcept;

/// Every way a byte stream can fail to decode. None is the "no error yet"
/// sentinel used by FrameDecoder::error().
enum class WireErrorCode : std::uint8_t {
  None = 0,
  BadMagic,         ///< first four bytes are not "SPW1"
  BadVersion,       ///< version byte != kWireVersion
  BadOpcode,        ///< opcode byte outside the enum
  BadStatus,        ///< status byte outside the enum
  ReservedNonzero,  ///< reserved header byte set
  FrameTooLarge,    ///< declared payload length over the decoder's cap
  CrcMismatch,      ///< payload CRC32 does not match the header
  TruncatedPayload, ///< stream ended mid-frame (finish())
  BadPayload,       ///< frame-level payload malformed for its opcode
};
[[nodiscard]] const char* to_string(WireErrorCode code) noexcept;

/// One decoded (or to-be-encoded) frame.
struct Frame {
  Opcode opcode = Opcode::Ping;
  Status status = Status::Ok;
  std::uint64_t request_id = 0;
  /// Deadline extension, milliseconds of budget remaining for the op.
  /// 0 = none (not encoded); the decoder strips the extension here so
  /// `payload` is always the opcode payload.
  std::uint64_t deadline_ms = 0;
  /// Tenant extension: an authenticated tenant identity, encoded when
  /// has_tenant and stripped by the decoder like the deadline. Responses
  /// never carry it (the server knows who it answers).
  bool has_tenant = false;
  std::uint32_t tenant_id = 0;
  std::uint64_t tenant_token = 0;
  std::vector<std::uint8_t> payload;
};

/// Stamps a request frame with a tenant identity + token (the encoder emits
/// them as the tenant extension).
inline void attach_tenant(Frame& frame, std::uint32_t tenant_id,
                          std::uint64_t token) noexcept {
  frame.has_tenant = true;
  frame.tenant_id = tenant_id;
  frame.tenant_token = token;
}

/// Serialises header + payload + CRC; appends to `out` (the server's
/// per-connection output buffer) without clearing it.
void append_frame(std::vector<std::uint8_t>& out, const Frame& frame);
/// Same encoding without materialising a Frame: the payload is written
/// straight from the caller's buffer into `out` — the server's completion
/// lanes use this to assemble READ/WRITE responses directly in the
/// connection's output buffer.
void append_frame_direct(std::vector<std::uint8_t>& out, Opcode opcode,
                         Status status, std::uint64_t request_id,
                         std::span<const std::uint8_t> payload,
                         std::uint64_t deadline_ms = 0, bool has_tenant = false,
                         std::uint32_t tenant_id = 0,
                         std::uint64_t tenant_token = 0);
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

// --- typed request/response builders ---------------------------------------

[[nodiscard]] Frame make_ping(std::uint64_t id,
                              std::span<const std::uint8_t> echo = {});
[[nodiscard]] Frame make_read_request(std::uint64_t id, std::uint64_t block_addr);
[[nodiscard]] Frame make_write_request(std::uint64_t id, std::uint64_t block_addr,
                                       std::span<const std::uint8_t> data);
[[nodiscard]] Frame make_scrub_request(std::uint64_t id);
[[nodiscard]] Frame make_scrub_response(std::uint64_t id, std::uint64_t blocks);
[[nodiscard]] Frame make_metrics_request(
    std::uint64_t id, obs::MetricsFormat format = obs::MetricsFormat::Prometheus);
/// TOPOLOGY: empty payload fetches, a serialised topology proposes (the
/// payload bytes are produced/consumed by src/cluster — the wire layer
/// carries them opaquely).
[[nodiscard]] Frame make_topology_request(std::uint64_t id,
                                          std::span<const std::uint8_t> topology = {});
[[nodiscard]] Frame make_topology_response(std::uint64_t id,
                                           std::span<const std::uint8_t> topology);
/// MIGRATE_RANGE: spec bytes from src/cluster; the response carries three
/// u64 counters (migrated, skipped, failed).
[[nodiscard]] Frame make_migrate_request(std::uint64_t id,
                                         std::span<const std::uint8_t> spec);
[[nodiscard]] Frame make_migrate_response(std::uint64_t id, std::uint64_t migrated,
                                          std::uint64_t skipped, std::uint64_t failed);
/// MOVED: Status::Moved with the owning node's serialised NodeInfo.
[[nodiscard]] Frame make_moved_response(Opcode op, std::uint64_t id,
                                        std::span<const std::uint8_t> owner);
/// Error response: status + the reason string as payload.
[[nodiscard]] Frame make_error_response(Opcode op, Status status, std::uint64_t id,
                                        std::string_view reason);
/// Error response shaped after the request: echoes opcode and id.
[[nodiscard]] Frame make_error_response(const Frame& request, Status status,
                                        std::string_view reason);
/// BUSY: load shed with a retry-after hint. The payload leads with a
/// u64 retry-after in milliseconds followed by the reason string.
[[nodiscard]] Frame make_busy_response(const Frame& request,
                                       std::uint64_t retry_after_ms,
                                       std::string_view reason);
/// ROTATE_KEY: admin request to rotate `tenant`'s key domain; the
/// response reports the new epoch and how many blocks were scheduled for
/// background re-encryption.
[[nodiscard]] Frame make_rotate_request(std::uint64_t id, std::uint32_t tenant);
[[nodiscard]] Frame make_rotate_response(std::uint64_t id, std::uint64_t epoch,
                                         std::uint64_t scheduled);

// --- typed payload parsers --------------------------------------------------
// Return false and set `error` (BadPayload) instead of throwing: the server
// maps a false return to a BadRequest response, the tests assert no parser
// can crash on arbitrary bytes.

[[nodiscard]] bool parse_read_request(const Frame& frame, std::uint64_t& block_addr,
                                      WireErrorCode& error) noexcept;
/// `data` aliases frame.payload — valid while the frame lives.
[[nodiscard]] bool parse_write_request(const Frame& frame, std::uint64_t& block_addr,
                                       std::span<const std::uint8_t>& data,
                                       WireErrorCode& error) noexcept;
[[nodiscard]] bool parse_metrics_request(const Frame& frame, obs::MetricsFormat& format,
                                         WireErrorCode& error) noexcept;
[[nodiscard]] bool parse_scrub_response(const Frame& frame, std::uint64_t& blocks,
                                        WireErrorCode& error) noexcept;
[[nodiscard]] bool parse_migrate_response(const Frame& frame, std::uint64_t& migrated,
                                          std::uint64_t& skipped, std::uint64_t& failed,
                                          WireErrorCode& error) noexcept;
[[nodiscard]] bool parse_busy_response(const Frame& frame,
                                       std::uint64_t& retry_after_ms,
                                       WireErrorCode& error) noexcept;
[[nodiscard]] bool parse_rotate_request(const Frame& frame, std::uint32_t& tenant,
                                        WireErrorCode& error) noexcept;
[[nodiscard]] bool parse_rotate_response(const Frame& frame, std::uint64_t& epoch,
                                         std::uint64_t& scheduled,
                                         WireErrorCode& error) noexcept;

enum class DecodeStatus : std::uint8_t {
  Ok,        ///< a complete frame was produced
  NeedMore,  ///< buffered bytes end mid-frame; feed() more
  Error,     ///< stream malformed; error() names why; decoder is poisoned
};

/// Incremental frame parser over a byte stream. feed() arbitrary chunks,
/// next() until NeedMore; after the peer closes, finish() distinguishes a
/// clean frame boundary from a truncated tail.
class FrameDecoder {
public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const void* data, std::size_t len);
  void feed(std::span<const std::uint8_t> bytes) { feed(bytes.data(), bytes.size()); }

  /// Pops the next complete frame into `out`. Once Error is returned the
  /// decoder stays poisoned (same code forever) — close the connection.
  [[nodiscard]] DecodeStatus next(Frame& out);

  /// After end-of-stream: None if the buffer sits on a frame boundary,
  /// TruncatedPayload if bytes of an incomplete frame remain, or the
  /// poisoning error.
  [[nodiscard]] WireErrorCode finish() const noexcept;

  [[nodiscard]] WireErrorCode error() const noexcept { return error_; }
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size() - off_; }
  [[nodiscard]] std::size_t max_frame_bytes() const noexcept { return max_frame_bytes_; }

private:
  [[nodiscard]] DecodeStatus fail(WireErrorCode code) noexcept;

  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;  ///< consumed prefix of buf_ (compacted lazily)
  WireErrorCode error_ = WireErrorCode::None;
};

}  // namespace spe::net
