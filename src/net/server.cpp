#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "runtime/service_config.hpp"

namespace spe::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kListenBacklog = 64;
/// An op's response is abandoned (Status::Timeout) this long after its
/// frame arrived, unless the frame's own deadline is sooner.
constexpr std::chrono::milliseconds kRequestTimeout{5'000};
/// A connection whose pending output has not moved a byte for this long is
/// evicted by the sweep (a zero-window peer would pin its buffer forever).
constexpr std::chrono::milliseconds kStallTimeout{10'000};
/// Hard cap on one connection's un-flushed output; a slow consumer past it
/// is closed rather than ballooning server memory.
constexpr std::size_t kMaxOutputBuffer = std::size_t{8} << 20;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("spe::net::Server: ") + what + ": " +
                           std::strerror(errno));
}

}  // namespace

Server::Server(runtime::MemoryService& service, ServerConfig config)
    : service_(service), config_(std::move(config)) {
  if (config_.completion_threads == 0) config_.completion_threads = 1;
  lanes_.reserve(config_.completion_threads);
  for (unsigned i = 0; i < config_.completion_threads; ++i)
    lanes_.push_back(std::make_unique<CompletionLane>());
}

Server::~Server() { stop(); }

std::uint16_t Server::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return port_;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("spe::net::Server: bad bind address " +
                             config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    throw_errno("bind/listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw_errno("getsockname");
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) throw_errno("epoll_create1/eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0)
    throw_errno("epoll_ctl(listen)");
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0)
    throw_errno("epoll_ctl(wake)");

  completion_threads_.reserve(config_.completion_threads);
  for (unsigned i = 0; i < config_.completion_threads; ++i)
    completion_threads_.emplace_back(
        [this, lane = lanes_[i].get()] { completion_loop(*lane); });
  event_thread_ = std::thread([this] { event_loop(); });
  return port_;
}

void Server::wake() noexcept {
  const std::uint64_t v = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &v, sizeof v);
}

void Server::stop() {
  if (stop_started_.exchange(true, std::memory_order_acq_rel)) {
    // Another thread is (or was) stopping: wait until it finishes so every
    // caller returns to a fully-stopped server.
    std::unique_lock lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stop_done_; });
    return;
  }
  if (started_.load(std::memory_order_acquire)) {
    // Phase 1: stop accepting, answer fresh frames with Stopped.
    draining_.store(true, std::memory_order_release);
    wake();
    // Phase 2: bounded wait for in-flight requests to answer.
    {
      std::unique_lock lock(drain_mutex_);
      drain_cv_.wait_for(lock, config_.drain_timeout, [this] {
        return pending_count_.load(std::memory_order_acquire) == 0;
      });
    }
    // Anything still pending has outlived the drain budget: finish_pending
    // now answers unready futures with Status::Stopped immediately instead
    // of blocking kRequestTimeout per queued item — every in-flight op gets
    // a typed response, and stop() stays bounded.
    if (pending_count_.load(std::memory_order_acquire) != 0)
      drain_expired_.store(true, std::memory_order_release);
    // Phase 3: completion threads finish their lanes (each item bounded by
    // kRequestTimeout) and exit; then the loop flushes and closes.
    completions_quit_.store(true, std::memory_order_release);
    for (auto& lane : lanes_) {
      {
        std::lock_guard lock(lane->mutex);  // pairs with the waiter's check
      }
      lane->cv.notify_all();
    }
    for (auto& t : completion_threads_) {
      if (t.joinable()) t.join();
    }
    quit_.store(true, std::memory_order_release);
    wake();
    if (event_thread_.joinable()) event_thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  }
  {
    std::lock_guard lock(stop_mutex_);
    stop_done_ = true;
  }
  stop_done_flag_.store(true, std::memory_order_release);
  stop_cv_.notify_all();
}

void Server::event_loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  auto last_sweep = Clock::now();
  while (!quit_.load(std::memory_order_acquire)) {
    // Drop the listen socket the moment a drain starts.
    if (draining_.load(std::memory_order_acquire) && listen_fd_ >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, /*timeout_ms=*/100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t v;
        while (::read(wake_fd_, &v, sizeof v) > 0) {
        }
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      const std::shared_ptr<Conn> conn = it->second;  // handlers may erase
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) conn_readable(conn);
      if (!conn->dead.load(std::memory_order_acquire) &&
          (events[i].events & EPOLLOUT))
        flush(conn);
    }
    // Connections the completion threads appended responses to.
    std::vector<std::shared_ptr<Conn>> dirty;
    {
      std::lock_guard lock(dirty_mutex_);
      dirty.swap(dirty_);
    }
    for (const auto& conn : dirty)
      if (!conn->dead.load(std::memory_order_acquire)) flush(conn);
    const auto now = Clock::now();
    if (now - last_sweep >= std::chrono::milliseconds(250)) {
      sweep_idle(now);
      last_sweep = now;
    }
  }
  // Shutdown: one best-effort flush of everything delivered, then close.
  std::vector<std::shared_ptr<Conn>> remaining;
  remaining.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) remaining.push_back(conn);
  for (const auto& conn : remaining) {
    flush(conn);
    close_conn(conn);
  }
  conns_.clear();
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient failure: epoll will re-report
    }
    if (draining_.load(std::memory_order_acquire) ||
        conns_.size() >= config_.max_connections) {
      counters_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->id = ++next_conn_id_;
    conn->decoder = FrameDecoder(config_.max_frame_bytes);
    conn->last_activity = Clock::now();
    conn->last_progress = conn->last_activity;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    obs::Tracer::instance().instant("net.accept", conn->id, fd);
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    counters_.connections_active.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(fd, std::move(conn));
  }
}

void Server::conn_readable(const std::shared_ptr<Conn>& conn) {
  std::uint8_t buf[64 * 1024];
  bool peer_closed = false;
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n > 0) {
      counters_.bytes_rx.fetch_add(static_cast<std::uint64_t>(n),
                                   std::memory_order_relaxed);
      conn->decoder.feed(buf, static_cast<std::size_t>(n));
      conn->last_activity = Clock::now();
      if (static_cast<std::size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;
    break;
  }
  Frame frame;
  for (;;) {
    const DecodeStatus status = conn->decoder.next(frame);
    if (status == DecodeStatus::NeedMore) break;
    if (status == DecodeStatus::Error) {
      // Poisoned stream: one best-effort reason frame, then close after
      // whatever is already buffered flushes.
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      respond_now(conn, make_error_response(Opcode::Ping, Status::BadRequest, 0,
                                            to_string(conn->decoder.error())));
      conn->closing = true;
      break;
    }
    counters_.frames_rx.fetch_add(1, std::memory_order_relaxed);
    handle_frame(conn, std::move(frame));
    if (conn->dead.load(std::memory_order_acquire)) return;
  }
  if (peer_closed) {
    // A killed client may leave responses in flight; completion threads see
    // the dead flag and drop them.
    close_conn(conn);
    return;
  }
  if (conn->closing) flush(conn);
}

void Server::handle_frame(const std::shared_ptr<Conn>& conn, Frame&& frame) {
  obs::Tracer::instance().instant("net.request",
                                  static_cast<std::uint64_t>(frame.opcode),
                                  frame.request_id);
  if (ChaosPolicy* chaos = config_.chaos.get(); chaos != nullptr && chaos->enabled()) {
    // rx side only drops: the frame vanished in flight, the client's
    // deadline notices. (Byte-level mangling is a tx-side concern.)
    const ChaosSite site{conn->id, conn->chaos_rx_events++,
                         static_cast<std::uint8_t>(frame.opcode), true};
    if (chaos->decide(site) == ChaosAction::Drop) {
      chaos->stats().note(ChaosAction::Drop);
      return;
    }
  }
  if (cluster_ != nullptr) {
    Frame response;
    switch (cluster_->fast_path(frame, response)) {
      case ClusterHandler::Verdict::NotMine:
        break;
      case ClusterHandler::Verdict::Respond:
        respond_now(conn, response);
        return;
      case ClusterHandler::Verdict::Defer:
        submit_handler(conn, std::move(frame));
        return;
    }
  }
  switch (frame.opcode) {
    case Opcode::Ping: {
      Frame resp;
      resp.opcode = Opcode::Ping;
      resp.request_id = frame.request_id;
      resp.payload = std::move(frame.payload);
      respond_now(conn, resp);
      return;
    }
    case Opcode::Metrics: {
      obs::MetricsFormat format = obs::MetricsFormat::Prometheus;
      WireErrorCode err = WireErrorCode::None;
      if (!parse_metrics_request(frame, format, err)) {
        counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        respond_now(conn,
                    make_error_response(frame, Status::BadRequest, to_string(err)));
        return;
      }
      const std::string text = export_metrics(format);
      Frame resp;
      resp.opcode = Opcode::Metrics;
      resp.request_id = frame.request_id;
      resp.payload.assign(text.begin(), text.end());
      respond_now(conn, resp);
      return;
    }
    case Opcode::Read:
    case Opcode::Write:
    case Opcode::Scrub:
    case Opcode::RotateKey:
      submit_request(conn, std::move(frame));
      return;
    case Opcode::Topology:
    case Opcode::MigrateRange:
      // Cluster opcodes reach here only without a cluster handler installed.
      respond_now(conn, make_error_response(frame, Status::BadRequest,
                                            "not a cluster member"));
      return;
  }
}

bool Server::admit(const std::shared_ptr<Conn>& conn, const Frame& frame) {
  if (draining_.load(std::memory_order_acquire)) {
    respond_now(conn, make_error_response(frame, Status::Stopped, "server draining"));
    return false;
  }
  if (conn->inflight.load(std::memory_order_acquire) >=
      static_cast<int>(config_.max_inflight_per_conn)) {
    counters_.overload_rejected.fetch_add(1, std::memory_order_relaxed);
    respond_now(conn, make_error_response(frame, Status::Overloaded,
                                          "per-connection in-flight cap"));
    return false;
  }
  return true;
}

void Server::enqueue_pending(const std::shared_ptr<Conn>& conn, Pending&& pending) {
  conn->inflight.fetch_add(1, std::memory_order_acq_rel);
  pending_count_.fetch_add(1, std::memory_order_acq_rel);
  CompletionLane& lane = *lanes_[pending.lane % lanes_.size()];
  {
    std::lock_guard lock(lane.mutex);
    lane.queue.push_back(std::move(pending));
  }
  lane.cv.notify_one();
}

void Server::submit_handler(const std::shared_ptr<Conn>& conn, Frame&& frame) {
  if (!admit(conn, frame)) return;
  Pending pending;
  pending.kind = Pending::Kind::Handler;
  pending.conn = conn;
  pending.request_id = frame.request_id;
  pending.deadline_ms = frame.deadline_ms;
  pending.lane = next_lane_++;  // no shard affinity: spread across lanes
  pending.received = Clock::now();
  pending.handler_frame = std::move(frame);
  enqueue_pending(conn, std::move(pending));
}

void Server::submit_request(const std::shared_ptr<Conn>& conn, Frame&& frame) {
  const Opcode op = frame.opcode;
  const std::uint64_t id = frame.request_id;
  if (!admit(conn, frame)) return;
  // --- tenant resolution -----------------------------------------------------
  // A frame without the tenant extension runs as the default domain. A frame
  // that does claim a tenant must authenticate (constant-time token MAC)
  // before anything else; a forged or unknown identity is a typed
  // AccessDenied, never a fallback to the default domain.
  tenant::TenantRegistry* reg = service_.config().tenants.get();
  tenant::TenantId tid = tenant::kDefaultTenant;
  if (frame.has_tenant && frame.tenant_id != tenant::kDefaultTenant) {
    if (reg == nullptr) {
      respond_now(conn, make_error_response(frame, Status::AccessDenied,
                                            "multi-tenancy disabled"));
      return;
    }
    if (!reg->authenticate(frame.tenant_id, frame.tenant_token, id,
                           static_cast<std::uint8_t>(op))) {
      if (reg->spec(frame.tenant_id) == nullptr)  // unknown id: count here
        reg->counters(tenant::kDefaultTenant)
            .auth_failures.fetch_add(1, std::memory_order_relaxed);
      respond_now(conn, make_error_response(frame, Status::AccessDenied,
                                            "tenant authentication failed"));
      return;
    }
    tid = frame.tenant_id;
  }
  // Per-tenant admission: one inflight slot, released when the request
  // settles (or on any early-out below, via the guard).
  bool tenant_admitted = false;
  if (reg != nullptr) {
    if (!reg->try_acquire_inflight(tid)) {
      counters_.overload_rejected.fetch_add(1, std::memory_order_relaxed);
      respond_now(conn, make_error_response(frame, Status::Overloaded,
                                            "tenant in-flight cap"));
      return;
    }
    tenant_admitted = true;
  }
  struct InflightGuard {
    tenant::TenantRegistry* reg = nullptr;
    tenant::TenantId id = 0;
    ~InflightGuard() {
      if (reg != nullptr) reg->release_inflight(id);
    }
  } admission_guard{tenant_admitted ? reg : nullptr, tid};
  Pending pending;
  pending.conn = conn;
  pending.request_id = id;
  pending.deadline_ms = frame.deadline_ms;
  pending.tenant = tid;
  pending.admitted = tenant_admitted;
  pending.received = Clock::now();
  // Deadline-aware load shedding: when a frame declares its remaining
  // budget and the target shard's expected queue wait already exceeds it,
  // answer Busy with that wait as the retry-after hint — queueing it would
  // only burn shard time on a response the client must discard as late.
  const auto shed = [this, &conn, &frame](unsigned shard) {
    if (frame.deadline_ms == 0) return false;
    const std::uint64_t wait_ms =
        service_.estimated_queue_wait_ns(shard) / 1'000'000;
    if (wait_ms <= frame.deadline_ms) return false;
    counters_.busy_shed.fetch_add(1, std::memory_order_relaxed);
    respond_now(conn, make_busy_response(frame, wait_ms,
                                         "queue wait exceeds op deadline"));
    return true;
  };
  try {
    switch (op) {
      case Opcode::Read: {
        std::uint64_t addr = 0;
        WireErrorCode err = WireErrorCode::None;
        if (!parse_read_request(frame, addr, err)) {
          counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          respond_now(conn,
                      make_error_response(frame, Status::BadRequest, to_string(err)));
          return;
        }
        // Every identity — including the default domain — is confined to the
        // ranges it owns; there is no admin bypass on the data path.
        if (reg != nullptr && reg->owner_of(addr) != tid) {
          reg->counters(tid).denied.fetch_add(1, std::memory_order_relaxed);
          respond_now(conn, make_error_response(frame, Status::AccessDenied,
                                                "address owned by another tenant"));
          return;
        }
        pending.kind = Pending::Kind::Read;
        pending.lane = service_.shard_of(addr);  // shard-affine completion
        if (shed(pending.lane)) return;
        pending.read_future = service_.submit_read(addr);
        if (reg != nullptr)
          reg->counters(tid).reads.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case Opcode::Write: {
        std::uint64_t addr = 0;
        std::span<const std::uint8_t> data;
        WireErrorCode err = WireErrorCode::None;
        if (!parse_write_request(frame, addr, data, err) ||
            data.size() != service_.block_bytes()) {
          counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          respond_now(conn,
                      make_error_response(frame, Status::BadRequest,
                                          "write payload must be exactly one block"));
          return;
        }
        if (reg != nullptr && reg->owner_of(addr) != tid) {
          reg->counters(tid).denied.fetch_add(1, std::memory_order_relaxed);
          respond_now(conn, make_error_response(frame, Status::AccessDenied,
                                                "address owned by another tenant"));
          return;
        }
        pending.kind = Pending::Kind::Write;
        pending.lane = service_.shard_of(addr);  // shard-affine completion
        if (shed(pending.lane)) return;
        pending.write_future = service_.submit_write(addr, data);
        if (reg != nullptr)
          reg->counters(tid).writes.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case Opcode::RotateKey: {
        std::uint32_t target = 0;
        WireErrorCode err = WireErrorCode::None;
        if (!parse_rotate_request(frame, target, err)) {
          counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          respond_now(conn,
                      make_error_response(frame, Status::BadRequest, to_string(err)));
          return;
        }
        if (reg == nullptr) {
          respond_now(conn, make_error_response(frame, Status::AccessDenied,
                                                "multi-tenancy disabled"));
          return;
        }
        if (!frame.has_tenant) {
          // A tokenless frame carries no identity to authorize an admin op with.
          reg->counters(tid).denied.fetch_add(1, std::memory_order_relaxed);
          respond_now(conn,
                      make_error_response(frame, Status::BadRequest,
                                          "key rotation requires a v4 tenant token"));
          return;
        }
        if (tid != tenant::kDefaultTenant && tid != target) {
          reg->counters(tid).denied.fetch_add(1, std::memory_order_relaxed);
          respond_now(conn,
                      make_error_response(frame, Status::AccessDenied,
                                          "tenant may rotate only its own key domain"));
          return;
        }
        pending.kind = Pending::Kind::Rotate;
        pending.rotate_target = target;
        pending.lane = next_lane_++;
        break;
      }
      default:
        if (reg != nullptr && tid != tenant::kDefaultTenant) {
          // Scrub sweeps every tenant's blocks — admin (default domain) only.
          reg->counters(tid).denied.fetch_add(1, std::memory_order_relaxed);
          respond_now(conn, make_error_response(frame, Status::AccessDenied,
                                                "scrub is an admin op"));
          return;
        }
        pending.kind = Pending::Kind::Scrub;
        pending.lane = next_lane_++;
        break;
    }
  } catch (const runtime::QueueFullError& e) {
    counters_.overload_rejected.fetch_add(1, std::memory_order_relaxed);
    respond_now(conn, make_error_response(frame, Status::Overloaded, e.what()));
    return;
  } catch (const runtime::ServiceStoppedError& e) {
    respond_now(conn, make_error_response(frame, Status::Stopped, e.what()));
    return;
  } catch (const std::exception& e) {
    respond_now(conn, make_error_response(frame, Status::Internal, e.what()));
    return;
  }
  admission_guard.reg = nullptr;  // the slot now rides with the Pending
  enqueue_pending(conn, std::move(pending));
}

void Server::completion_loop(CompletionLane& lane) {
  for (;;) {
    Pending pending;
    {
      std::unique_lock lock(lane.mutex);
      lane.cv.wait(lock, [this, &lane] {
        return completions_quit_.load(std::memory_order_acquire) ||
               !lane.queue.empty();
      });
      if (lane.queue.empty()) {
        if (completions_quit_.load(std::memory_order_acquire)) return;
        continue;
      }
      pending = std::move(lane.queue.front());
      lane.queue.pop_front();
    }
    finish_pending(pending);
    if (pending.admitted)
      if (tenant::TenantRegistry* reg = service_.config().tenants.get())
        reg->release_inflight(pending.tenant);
    pending.conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
    if (pending_count_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(drain_mutex_);  // pairs with the stop() waiter
      drain_cv_.notify_all();
    }
  }
}

void Server::finish_pending(Pending& pending) {
  // The wait is bounded by whichever expires first: the server-wide request
  // timeout or the op's own deadline. Drain expiry (stop() past its
  // budget) short-circuits the wait entirely — unready ops answer Stopped
  // now, typed, instead of holding shutdown hostage one timeout at a time.
  auto deadline = pending.received + kRequestTimeout;
  if (pending.deadline_ms != 0)
    deadline = std::min(deadline, pending.received +
                                      std::chrono::milliseconds(pending.deadline_ms));
  if (drain_expired_.load(std::memory_order_acquire)) deadline = Clock::now();
  Opcode opcode = Opcode::Scrub;
  switch (pending.kind) {
    case Pending::Kind::Read: opcode = Opcode::Read; break;
    case Pending::Kind::Write: opcode = Opcode::Write; break;
    case Pending::Kind::Scrub: opcode = Opcode::Scrub; break;
    case Pending::Kind::Handler: opcode = pending.handler_frame.opcode; break;
    case Pending::Kind::Rotate: opcode = Opcode::RotateKey; break;
  }
  // Every error/handler outcome goes through a Frame + deliver(); READ and
  // WRITE successes skip the Frame and encode straight into the connection's
  // output buffer.
  Frame response;
  try {
    switch (pending.kind) {
      case Pending::Kind::Handler:
        // The cluster hook owns its own deadlines (migration batches can
        // legitimately outlive kRequestTimeout).
        response = cluster_->slow_path(std::move(pending.handler_frame));
        deliver(pending, response);
        return;
      case Pending::Kind::Read: {
        if (pending.read_future.wait_until(deadline) != std::future_status::ready) {
          if (drain_expired_.load(std::memory_order_acquire)) {
            counters_.drain_aborted.fetch_add(1, std::memory_order_relaxed);
            response = make_error_response(opcode, Status::Stopped,
                                           pending.request_id,
                                           "server drained before completion");
          } else {
            counters_.request_timeouts.fetch_add(1, std::memory_order_relaxed);
            response = make_error_response(opcode, Status::Timeout,
                                           pending.request_id, "read deadline expired");
          }
          break;
        }
        const std::vector<std::uint8_t> data = pending.read_future.get();
        deliver_direct(pending, opcode, data);
        return;
      }
      case Pending::Kind::Write:
        if (pending.write_future.wait_until(deadline) != std::future_status::ready) {
          if (drain_expired_.load(std::memory_order_acquire)) {
            counters_.drain_aborted.fetch_add(1, std::memory_order_relaxed);
            response = make_error_response(opcode, Status::Stopped,
                                           pending.request_id,
                                           "server drained before completion");
          } else {
            counters_.request_timeouts.fetch_add(1, std::memory_order_relaxed);
            response = make_error_response(opcode, Status::Timeout,
                                           pending.request_id, "write deadline expired");
          }
          break;
        }
        pending.write_future.get();
        deliver_direct(pending, opcode, {});
        return;
      case Pending::Kind::Scrub:
        response = make_scrub_response(pending.request_id, service_.scrub_all());
        break;
      case Pending::Kind::Rotate: {
        // Authorization happened at submit; the rotation itself (epoch bump,
        // key sealing, per-shard domain flip) may block, which is why it
        // lives on a completion thread.
        const runtime::MemoryService::RotationResult r =
            service_.rotate_tenant_key(pending.rotate_target);
        response = make_rotate_response(pending.request_id, r.epoch, r.scheduled);
        break;
      }
    }
  } catch (const runtime::QuotaExceededError& e) {
    response = make_error_response(opcode, Status::QuotaExceeded,
                                   pending.request_id, e.what());
  } catch (const std::invalid_argument& e) {
    // rotate_tenant_key on an unknown/default tenant
    response = make_error_response(opcode, Status::BadRequest,
                                   pending.request_id, e.what());
  } catch (const runtime::UncorrectableFaultError& e) {
    response = make_error_response(opcode, Status::Uncorrectable,
                                   pending.request_id, e.what());
  } catch (const runtime::QuarantinedBlockError& e) {
    response = make_error_response(opcode, Status::Quarantined,
                                   pending.request_id, e.what());
  } catch (const runtime::TornBlockError& e) {
    response =
        make_error_response(opcode, Status::Torn, pending.request_id, e.what());
  } catch (const runtime::ServiceStoppedError& e) {
    response =
        make_error_response(opcode, Status::Stopped, pending.request_id, e.what());
  } catch (const std::exception& e) {
    response = make_error_response(opcode, Status::Internal, pending.request_id,
                                   e.what());
  }
  deliver(pending, response);
}

bool Server::append_response(const std::shared_ptr<Conn>& conn, Opcode opcode,
                             Status status,
                             std::uint64_t request_id,
                             std::span<const std::uint8_t> payload,
                             bool may_block) {
  ChaosPolicy* chaos = config_.chaos.get();
  ChaosAction action = ChaosAction::None;
  ChaosSite site;
  if (chaos != nullptr && chaos->enabled()) {
    site = ChaosSite{conn->id,
                     conn->chaos_tx_events.fetch_add(1, std::memory_order_relaxed),
                     static_cast<std::uint8_t>(opcode), false};
    action = chaos->decide(site);
    // The event loop must never sleep; a Delay decided there degrades to a
    // clean send rather than stalling every connection.
    if (action == ChaosAction::Delay && !may_block) action = ChaosAction::None;
    if (action != ChaosAction::None) chaos->stats().note(action);
  }
  switch (action) {
    case ChaosAction::Drop:
      return false;  // the response vanishes; the client's deadline notices
    case ChaosAction::Delay:
      std::this_thread::sleep_for(chaos->delay_for(site));
      break;
    default:
      break;
  }
  {
    std::lock_guard lock(conn->out_mutex);
    const std::size_t start = conn->out.size();
    append_frame_direct(conn->out, opcode, status, request_id, payload);
    switch (action) {
      case ChaosAction::Corrupt:
        conn->out[start + chaos->corrupt_offset(site, conn->out.size() - start)] ^=
            chaos->corrupt_mask(site);
        break;
      case ChaosAction::Truncate:
        // Keep only a prefix: the client's decoder stalls mid-frame and its
        // io deadline (then reconnect) recovers the stream.
        conn->out.resize(start + chaos->truncate_len(site, conn->out.size() - start));
        break;
      case ChaosAction::Duplicate: {
        const std::size_t len = conn->out.size() - start;
        conn->out.insert(conn->out.end(), conn->out.begin() + start,
                         conn->out.begin() + start + len);
        break;
      }
      case ChaosAction::Reset:
        // Close after this frame hits the wire; the event loop owns fds, so
        // just flag it and let flush() finish the kill.
        conn->chaos_kill.store(true, std::memory_order_release);
        break;
      default:
        break;
    }
  }
  counters_.frames_tx.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Server::respond_now(const std::shared_ptr<Conn>& conn, const Frame& frame) {
  if (!append_response(conn, frame.opcode, frame.status, frame.request_id,
                       frame.payload, /*may_block=*/false))
    return;
  flush(conn);
}

void Server::count_completed(const Pending& pending) {
  counters_.requests_completed.fetch_add(1, std::memory_order_relaxed);
  counters_.request_latency.record(Clock::now() - pending.received);
}

void Server::deliver(const Pending& pending, const Frame& frame) {
  count_completed(pending);
  const std::shared_ptr<Conn>& conn = pending.conn;
  if (conn->dead.load(std::memory_order_acquire)) return;
  if (!append_response(conn, frame.opcode, frame.status, frame.request_id,
                       frame.payload, /*may_block=*/true))
    return;
  {
    std::lock_guard lock(dirty_mutex_);
    dirty_.push_back(conn);
  }
  wake();
}

void Server::deliver_direct(const Pending& pending, Opcode opcode,
                            std::span<const std::uint8_t> payload) {
  count_completed(pending);
  const std::shared_ptr<Conn>& conn = pending.conn;
  if (conn->dead.load(std::memory_order_acquire)) return;
  if (!append_response(conn, opcode, Status::Ok, pending.request_id, payload,
                       /*may_block=*/true))
    return;
  {
    std::lock_guard lock(dirty_mutex_);
    dirty_.push_back(conn);
  }
  wake();
}

void Server::flush(const std::shared_ptr<Conn>& conn) {
  if (conn->dead.load(std::memory_order_acquire)) return;
  obs::Span span("net.flush", conn->id);
  bool flushed_all = false;
  bool io_error = false;
  bool over_cap = false;
  {
    std::lock_guard lock(conn->out_mutex);
    while (conn->out_off < conn->out.size()) {
      const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off += static_cast<std::size_t>(n);
        counters_.bytes_tx.fetch_add(static_cast<std::uint64_t>(n),
                                     std::memory_order_relaxed);
        span.add_a1(static_cast<std::uint64_t>(n));
        conn->last_progress = Clock::now();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      io_error = true;
      break;
    }
    if (conn->out_off == conn->out.size()) {
      conn->out.clear();
      conn->out_off = 0;
      flushed_all = true;
    } else if (conn->out.size() - conn->out_off > kMaxOutputBuffer) {
      // Slow consumer past the buffer cap: evict rather than balloon.
      over_cap = true;
    }
  }
  if (io_error) {
    close_conn(conn);
    return;
  }
  if (over_cap) {
    counters_.stalled_closed.fetch_add(1, std::memory_order_relaxed);
    close_conn(conn);
    return;
  }
  if (flushed_all && conn->chaos_kill.load(std::memory_order_acquire)) {
    close_conn(conn);
    return;
  }
  set_want_write(*conn, !flushed_all);
  if (flushed_all && conn->closing &&
      conn->inflight.load(std::memory_order_acquire) == 0)
    close_conn(conn);
}

void Server::set_want_write(Conn& conn, bool want) {
  if (conn.want_write == want) return;
  epoll_event ev{};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0)
    conn.want_write = want;
}

void Server::close_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->dead.exchange(true, std::memory_order_acq_rel)) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  counters_.connections_active.fetch_sub(1, std::memory_order_relaxed);
}

void Server::sweep_idle(Clock::time_point now) {
  std::vector<std::shared_ptr<Conn>> idle_victims;
  std::vector<std::shared_ptr<Conn>> stalled_victims;
  for (const auto& [fd, conn] : conns_) {
    // In-flight requests still count as activity (their completions refresh
    // nothing); unread output does not — a peer that never reads is idle.
    if (config_.idle_timeout.count() != 0 &&
        conn->inflight.load(std::memory_order_acquire) == 0 &&
        now - conn->last_activity >= config_.idle_timeout) {
      idle_victims.push_back(conn);
      continue;
    }
    // Stall eviction: output is pending but not a byte has moved for
    // kStallTimeout — a zero-window or wedged peer holding buffer hostage.
    bool stalled = false;
    {
      std::lock_guard lock(conn->out_mutex);
      stalled = conn->out_off < conn->out.size() &&
                now - conn->last_progress >= kStallTimeout;
    }
    if (stalled) stalled_victims.push_back(conn);
  }
  for (const auto& conn : idle_victims) {
    counters_.idle_closed.fetch_add(1, std::memory_order_relaxed);
    close_conn(conn);
  }
  for (const auto& conn : stalled_victims) {
    counters_.stalled_closed.fetch_add(1, std::memory_order_relaxed);
    close_conn(conn);
  }
}

ServerCountersSnapshot Server::counters() const {
  ServerCountersSnapshot s;
  const auto get = [](const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  s.connections_accepted = get(counters_.connections_accepted);
  s.connections_rejected = get(counters_.connections_rejected);
  s.connections_active = get(counters_.connections_active);
  s.frames_rx = get(counters_.frames_rx);
  s.frames_tx = get(counters_.frames_tx);
  s.bytes_rx = get(counters_.bytes_rx);
  s.bytes_tx = get(counters_.bytes_tx);
  s.protocol_errors = get(counters_.protocol_errors);
  s.overload_rejected = get(counters_.overload_rejected);
  s.request_timeouts = get(counters_.request_timeouts);
  s.idle_closed = get(counters_.idle_closed);
  s.busy_shed = get(counters_.busy_shed);
  s.stalled_closed = get(counters_.stalled_closed);
  s.drain_aborted = get(counters_.drain_aborted);
  s.requests_completed = get(counters_.requests_completed);
  s.request_latency = counters_.request_latency.snapshot();
  return s;
}

void Server::fill_metrics(obs::MetricsRegistry& registry) const {
  const ServerCountersSnapshot s = counters();
  const auto counter = [&registry](const std::string& name, const std::string& help,
                                   std::uint64_t v) { registry.counter(name, help).add(v); };
  counter("spe_net_connections_accepted_total", "TCP connections accepted",
          s.connections_accepted);
  counter("spe_net_connections_rejected_total",
          "accepts refused over max_connections", s.connections_rejected);
  counter("spe_net_frames_rx_total", "wire frames received", s.frames_rx);
  counter("spe_net_frames_tx_total", "wire frames sent", s.frames_tx);
  counter("spe_net_bytes_rx_total", "payload+header bytes received", s.bytes_rx);
  counter("spe_net_bytes_tx_total", "payload+header bytes sent", s.bytes_tx);
  counter("spe_net_protocol_errors_total",
          "malformed frames / payloads (connection closed)", s.protocol_errors);
  counter("spe_net_overload_rejected_total",
          "requests answered Overloaded (in-flight cap or queue backpressure)",
          s.overload_rejected);
  counter("spe_net_request_timeouts_total",
          "requests answered Timeout past the server deadline", s.request_timeouts);
  counter("spe_net_idle_closed_total", "connections closed by the idle sweep",
          s.idle_closed);
  counter("spe_net_busy_shed_total",
          "requests answered Busy by deadline-aware load shedding", s.busy_shed);
  counter("spe_net_stalled_closed_total",
          "connections evicted for stalled/oversized output", s.stalled_closed);
  counter("spe_net_drain_aborted_total",
          "in-flight requests failed typed at drain expiry", s.drain_aborted);
  if (config_.chaos != nullptr) {
    const ChaosStats& c = config_.chaos->stats();
    const auto chaos_get = [](const std::atomic<std::uint64_t>& v) {
      return v.load(std::memory_order_relaxed);
    };
    counter("spe_net_chaos_injections_total",
            "chaos actions injected into server frame I/O", c.total());
    counter("spe_net_chaos_dropped_total", "frames dropped by chaos",
            chaos_get(c.dropped));
    counter("spe_net_chaos_corrupted_total", "frames corrupted by chaos",
            chaos_get(c.corrupted));
  }
  counter("spe_net_requests_completed_total",
          "responses encoded by the completion threads", s.requests_completed);
  registry.gauge("spe_net_connections_active", "connections currently open")
      .set(static_cast<double>(s.connections_active));
  registry
      .histogram("spe_net_request_latency_ns",
                 "frame receive to response encode, server side")
      .merge_buckets(s.request_latency);
}

std::string Server::export_metrics(obs::MetricsFormat format) const {
  obs::MetricsRegistry registry;
  service_.fill_metrics(registry);
  fill_metrics(registry);
  if (cluster_ != nullptr) cluster_->fill_metrics(registry);
  return registry.render(format);
}

}  // namespace spe::net
