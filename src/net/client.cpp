#include "net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "tenant/token.hpp"

namespace spe::net {

namespace {
/// Bound on one non-blocking connect attempt (the retry loop adds backoff).
constexpr int kConnectTimeoutMs = 1'000;
}  // namespace

Client::Client(ClientConfig config)
    : config_(std::move(config)), decoder_(config_.max_frame_bytes) {}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : config_(std::move(other.config_)),
      fd_(other.fd_),
      next_id_(other.next_id_),
      tenant_set_(other.tenant_set_),
      tenant_id_(other.tenant_id_),
      tenant_secret_(other.tenant_secret_),
      chaos_tx_events_(other.chaos_tx_events_),
      chaos_rx_events_(other.chaos_rx_events_),
      decoder_(std::move(other.decoder_)) {
  other.fd_ = -1;
}

void Client::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder(config_.max_frame_bytes);
}

void Client::connect() {
  if (connected()) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1)
    throw ConnectError("spe::net: bad host address " + config_.host);

  int last_errno = 0;
  std::chrono::milliseconds backoff = config_.connect_retry_backoff;
  for (unsigned attempt = 0; attempt <= config_.connect_retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, config_.connect_backoff_max);
    }
    // Non-blocking connect so a black-holed peer (dropped SYNs, dead NAT
    // entry) cannot pin this thread past kConnectTimeoutMs.
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc != 0 && (errno == EINPROGRESS || errno == EINTR)) {
      pollfd pfd{fd, POLLOUT, 0};
      int ready;
      do {
        ready = ::poll(&pfd, 1, kConnectTimeoutMs);
      } while (ready < 0 && errno == EINTR);
      if (ready == 0) {
        last_errno = ETIMEDOUT;
        ::close(fd);
        continue;
      }
      int sock_err = 0;
      socklen_t len = sizeof sock_err;
      if (ready > 0 &&
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &sock_err, &len) == 0 &&
          sock_err == 0) {
        rc = 0;
      } else {
        errno = sock_err != 0 ? sock_err : errno;
      }
    }
    if (rc == 0) {
      // Back to blocking mode: the send path relies on blocking writes.
      const int flags = ::fcntl(fd, F_GETFL, 0);
      if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      fd_ = fd;
      return;
    }
    last_errno = errno;
    ::close(fd);
  }
  const std::string where = config_.host + ":" + std::to_string(config_.port);
  if (last_errno == ETIMEDOUT)
    throw NetTimeoutError("spe::net: connect to " + where + " timed out after " +
                          std::to_string(config_.connect_retries + 1) +
                          " attempts");
  throw ConnectError("spe::net: cannot connect to " + where + ": " +
                     std::strerror(last_errno));
}

std::uint64_t Client::send_frame(const Frame& frame) {
  if (!connected()) throw ConnectError("spe::net: not connected");
  std::vector<std::uint8_t> bytes;
  if (tenant_set_ && !frame.has_tenant) {
    // Stamp the attached identity: a fresh token per frame, bound to the
    // request id and opcode so a captured frame cannot be replayed as a
    // different operation.
    append_frame_direct(bytes, frame.opcode, frame.status, frame.request_id,
                        frame.payload, frame.deadline_ms,
                        /*has_tenant=*/true, tenant_id_,
                        tenant::make_token(tenant_secret_, tenant_id_,
                                           frame.request_id,
                                           static_cast<std::uint8_t>(frame.opcode)));
  } else {
    bytes = encode_frame(frame);
  }
  std::size_t send_len = bytes.size();
  unsigned copies = 1;
  if (ChaosPolicy* chaos = config_.chaos.get(); chaos != nullptr && chaos->enabled()) {
    const ChaosSite site{config_.chaos_stream, chaos_tx_events_++,
                         static_cast<std::uint8_t>(frame.opcode), false};
    const ChaosAction action = chaos->decide(site);
    switch (action) {
      case ChaosAction::None:
        break;
      case ChaosAction::Drop:
        // Swallow the frame whole; the peer never sees it and the caller's
        // receive deadline is what eventually notices.
        chaos->stats().note(action);
        return frame.request_id;
      case ChaosAction::Delay:
        chaos->stats().note(action);
        std::this_thread::sleep_for(chaos->delay_for(site));
        break;
      case ChaosAction::Corrupt:
        chaos->stats().note(action);
        bytes[chaos->corrupt_offset(site, bytes.size())] ^= chaos->corrupt_mask(site);
        break;
      case ChaosAction::Truncate:
        // The stream stalls mid-frame; this connection is unusable for
        // further requests until the peer drops it.
        chaos->stats().note(action);
        send_len = chaos->truncate_len(site, bytes.size());
        break;
      case ChaosAction::Duplicate:
        chaos->stats().note(action);
        copies = 2;
        break;
      case ChaosAction::Reset:
        chaos->stats().note(action);
        close();
        throw ProtocolError("spe::net: connection reset (chaos)");
    }
  }
  for (unsigned copy = 0; copy < copies; ++copy) {
    std::size_t sent = 0;
    while (sent < send_len) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, send_len - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      const int err = errno;
      close();
      throw ProtocolError(std::string("spe::net: send failed: ") +
                          std::strerror(err));
    }
  }
  return frame.request_id;
}

Frame Client::recv_response(std::chrono::milliseconds deadline_override) {
  if (!connected()) throw ConnectError("spe::net: not connected");
  std::chrono::milliseconds budget = config_.io_deadline;
  if (deadline_override.count() > 0 &&
      (budget.count() <= 0 || deadline_override < budget)) {
    budget = deadline_override;
  }
  const auto deadline = std::chrono::steady_clock::now() + budget;
  const bool has_deadline = budget.count() > 0;
  Frame frame;
  for (;;) {
    const DecodeStatus status = decoder_.next(frame);
    if (status == DecodeStatus::Ok) {
      if (ChaosPolicy* chaos = config_.chaos.get();
          chaos != nullptr && chaos->enabled()) {
        const ChaosSite site{config_.chaos_stream, chaos_rx_events_++,
                             static_cast<std::uint8_t>(frame.opcode), true};
        const ChaosAction action = chaos->decide(site);
        // Only Drop and Delay make sense at post-decode granularity; the
        // byte-mangling actions already happened on the sender's side.
        if (action == ChaosAction::Drop) {
          chaos->stats().note(action);
          continue;
        }
        if (action == ChaosAction::Delay) {
          chaos->stats().note(action);
          std::this_thread::sleep_for(chaos->delay_for(site));
        }
      }
      return frame;
    }
    if (status == DecodeStatus::Error) {
      const WireErrorCode code = decoder_.error();
      close();
      throw ProtocolError(std::string("spe::net: bad response stream: ") +
                          to_string(code));
    }
    // NeedMore: wait for readable within the deadline, then pull bytes.
    int timeout_ms = -1;
    if (has_deadline) {
      const auto left = deadline - std::chrono::steady_clock::now();
      timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(left).count());
      if (timeout_ms <= 0) throw TimeoutError("spe::net: response deadline expired");
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) throw TimeoutError("spe::net: response deadline expired");
    if (ready < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      close();
      throw ProtocolError(std::string("spe::net: poll failed: ") +
                          std::strerror(err));
    }
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
      continue;
    close();
    throw ProtocolError("spe::net: connection closed by peer");
  }
}

std::uint64_t Client::send_read(std::uint64_t block_addr) {
  return send_frame(make_read_request(next_id_++, block_addr));
}

std::uint64_t Client::send_write(std::uint64_t block_addr,
                                 std::span<const std::uint8_t> data) {
  return send_frame(make_write_request(next_id_++, block_addr, data));
}

std::uint64_t Client::send_ping(std::span<const std::uint8_t> echo) {
  return send_frame(make_ping(next_id_++, echo));
}

std::uint64_t Client::send_scrub() {
  return send_frame(make_scrub_request(next_id_++));
}

std::uint64_t Client::send_metrics(obs::MetricsFormat format) {
  return send_frame(make_metrics_request(next_id_++, format));
}

Frame Client::await(std::uint64_t id) {
  Frame frame = await_matching(id, std::chrono::milliseconds{0});
  if (frame.status != Status::Ok)
    throw RemoteError(frame.status,
                      std::string(frame.payload.begin(), frame.payload.end()));
  return frame;
}

std::vector<std::uint8_t> Client::read_block(std::uint64_t block_addr) {
  return await(send_read(block_addr)).payload;
}

void Client::write_block(std::uint64_t block_addr,
                         std::span<const std::uint8_t> data) {
  (void)await(send_write(block_addr, data));
}

std::uint64_t Client::scrub() {
  const Frame frame = await(send_scrub());
  std::uint64_t blocks = 0;
  WireErrorCode err = WireErrorCode::None;
  if (!parse_scrub_response(frame, blocks, err))
    throw ProtocolError(std::string("spe::net: bad scrub response: ") +
                        to_string(err));
  return blocks;
}

std::string Client::metrics(obs::MetricsFormat format) {
  const Frame frame = await(send_metrics(format));
  return {frame.payload.begin(), frame.payload.end()};
}

void Client::ping() { (void)await(send_ping()); }

std::uint64_t Client::send_rotate(std::uint32_t tenant) {
  return send_frame(make_rotate_request(next_id_++, tenant));
}

Client::RotationInfo Client::rotate_key(std::uint32_t tenant) {
  const Frame frame = await(send_rotate(tenant));
  RotationInfo info;
  WireErrorCode err = WireErrorCode::None;
  if (!parse_rotate_response(frame, info.epoch, info.scheduled, err))
    throw ProtocolError(std::string("spe::net: bad rotate response: ") +
                        to_string(err));
  return info;
}

Frame Client::await_matching(std::uint64_t id,
                             std::chrono::milliseconds deadline_override) {
  // A duplicated request (chaos, or a retry racing its original) makes the
  // server answer the same id twice, and an abandoned attempt can leave its
  // response in the pipe — stale ids below `id` are skipped, bounded so a
  // babbling peer still fails typed.
  for (unsigned skips = 0; skips < 64; ++skips) {
    Frame resp = recv_response(deadline_override);
    if (resp.request_id == id) return resp;
    if (resp.request_id < id) continue;
    break;
  }
  close();
  throw ProtocolError("spe::net: response id mismatch (pipelining mixed with "
                      "blocking RPCs?)");
}

Frame Client::call(Frame frame, std::chrono::milliseconds io_deadline_override) {
  frame.request_id = next_id_++;
  send_frame(frame);
  return await_matching(frame.request_id, io_deadline_override);
}

}  // namespace spe::net
