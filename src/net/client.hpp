#pragma once
// Blocking TCP client for the SPE wire protocol (src/net). One socket, one
// owner thread: the convenience RPCs (read_block / write_block / scrub /
// metrics / ping) send a frame and wait for its response; the pipelined
// send_* / recv_response pair is what the load generator uses to keep
// `depth` requests outstanding per connection.
//
// connect() retries with bounded exponential backoff (a freshly exec'd
// server may not be listening yet, and a cluster node mid-restart comes back
// within a few doublings); each attempt is itself bounded by a fixed 1 s
// connect timeout, and every receive honours io_deadline via poll(). All
// failures are typed: ConnectError, NetTimeoutError (connect attempt or
// response deadline expired), ProtocolError (malformed or unexpected bytes,
// peer close), and RemoteError carrying the response Status plus the
// server's reason string. After a transport error the client closes its
// socket; calling connect() again reconnects with the same backoff budget.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/chaos.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"

namespace spe::net {

class NetError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

class ConnectError : public NetError {
public:
  using NetError::NetError;
};

/// A deadline expired: a single connect attempt outran the connect timeout, or
/// no response arrived within io_deadline.
class NetTimeoutError : public NetError {
public:
  using NetError::NetError;
};
using TimeoutError = NetTimeoutError;  ///< pre-cluster name, kept for callers

class ProtocolError : public NetError {
public:
  using NetError::NetError;
};

/// The server answered with a non-Ok status; the payload (reason) rides in
/// what().
class RemoteError : public NetError {
public:
  RemoteError(Status status, const std::string& reason)
      : NetError(std::string("spe::net: remote error: ") + to_string(status) +
                 (reason.empty() ? "" : " (" + reason + ")")),
        status_(status) {}

  [[nodiscard]] Status status() const noexcept { return status_; }

private:
  Status status_;
};

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  unsigned connect_retries = 20;
  /// First retry delay; doubled per retry up to connect_backoff_max.
  std::chrono::milliseconds connect_retry_backoff{50};
  std::chrono::milliseconds connect_backoff_max{2'000};
  std::chrono::milliseconds io_deadline{5'000};      ///< 0 = block forever
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Chaos injection on this client's I/O (nullptr = clean). Shared so one
  /// policy (one seed, one stats block) can cover a whole fleet of clients.
  std::shared_ptr<ChaosPolicy> chaos;
  /// Stable stream id for chaos decisions — pick something reproducible
  /// across runs (an endpoint hash, a worker index), NOT a pointer or fd.
  std::uint64_t chaos_stream = 0;
};

class Client {
public:
  explicit Client(ClientConfig config);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  /// Move-constructible: the moved-from client is disconnected and reusable
  /// only via connect().
  Client(Client&& other) noexcept;

  /// Connects (with retry/backoff). Throws ConnectError when every attempt
  /// fails. No-op when already connected.
  void connect();
  void close() noexcept;
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  // --- multi-tenant identity ------------------------------------------------
  /// Attaches an authenticated tenant identity: every subsequent frame
  /// carries the tenant extension with a per-frame token MAC'd from
  /// `token_secret` (see src/tenant/token.hpp). The server denies forged or
  /// cross-tenant requests with Status::AccessDenied. Clearing reverts to
  /// the default domain.
  void set_tenant(std::uint32_t tenant_id, std::uint64_t token_secret) noexcept {
    tenant_set_ = true;
    tenant_id_ = tenant_id;
    tenant_secret_ = token_secret;
  }
  void clear_tenant() noexcept { tenant_set_ = false; }

  // --- pipelined API (load generator) --------------------------------------
  // Each send returns the request id; responses arrive via recv_response()
  // in server completion order (which is NOT submission order across
  // shards) — match on Frame::request_id.
  std::uint64_t send_read(std::uint64_t block_addr);
  std::uint64_t send_write(std::uint64_t block_addr, std::span<const std::uint8_t> data);
  std::uint64_t send_ping(std::span<const std::uint8_t> echo = {});
  std::uint64_t send_scrub();
  std::uint64_t send_metrics(obs::MetricsFormat format = obs::MetricsFormat::Prometheus);
  /// `deadline_override` > 0 caps this receive below config io_deadline —
  /// the deadline-aware retry loop passes its remaining budget here so one
  /// dropped response cannot eat the whole op deadline.
  [[nodiscard]] Frame recv_response(
      std::chrono::milliseconds deadline_override = std::chrono::milliseconds{0});

  // --- blocking RPC conveniences (single outstanding request) --------------
  [[nodiscard]] std::vector<std::uint8_t> read_block(std::uint64_t block_addr);
  void write_block(std::uint64_t block_addr, std::span<const std::uint8_t> data);
  std::uint64_t scrub();
  [[nodiscard]] std::string metrics(
      obs::MetricsFormat format = obs::MetricsFormat::Prometheus);
  void ping();

  /// ROTATE_KEY RPC: asks the server to rotate `tenant`'s key domain.
  /// Requires an attached tenant identity (set_tenant) — the server answers
  /// BadRequest for tokenless frames and AccessDenied when the caller is
  /// neither `tenant` itself nor the admin (default) domain.
  struct RotationInfo {
    std::uint64_t epoch = 0;
    std::uint64_t scheduled = 0;
  };
  RotationInfo rotate_key(std::uint32_t tenant);
  std::uint64_t send_rotate(std::uint32_t tenant);

  /// Sends `frame` (assigning the next request id) and returns the matching
  /// response WITHOUT interpreting its status byte — cluster-aware callers
  /// route on Status::Moved themselves, so unlike the conveniences above a
  /// non-Ok status is returned, not thrown. Throws only on transport
  /// failures. Stale responses to earlier (duplicated / abandoned) request
  /// ids are skipped, not treated as protocol errors. `io_deadline_override`
  /// > 0 caps the receive below config io_deadline.
  [[nodiscard]] Frame call(Frame frame,
                           std::chrono::milliseconds io_deadline_override =
                               std::chrono::milliseconds{0});

private:
  std::uint64_t send_frame(const Frame& frame);
  /// recv_response() that must match `id` (convenience RPC path).
  Frame await(std::uint64_t id);
  /// recv_response() skipping stale ids below `id` (bounded), for call().
  Frame await_matching(std::uint64_t id, std::chrono::milliseconds deadline_override);

  ClientConfig config_;
  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  bool tenant_set_ = false;
  std::uint32_t tenant_id_ = 0;
  std::uint64_t tenant_secret_ = 0;
  std::uint64_t chaos_tx_events_ = 0;  ///< frames offered to tx chaos
  std::uint64_t chaos_rx_events_ = 0;  ///< frames offered to rx chaos
  FrameDecoder decoder_;
};

}  // namespace spe::net
