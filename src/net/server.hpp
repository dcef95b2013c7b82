#pragma once
// Epoll-based non-blocking TCP server fronting a MemoryService (src/net).
//
// Threading model
//   event-loop thread    accept, read + incremental frame decode, response
//                        flush, idle sweeps, epoll re-arming. Owns every fd
//                        and the connection registry — no other thread
//                        touches a socket.
//   completion threads   wait on the MemoryService futures the event loop
//                        submitted, map the runtime error taxonomy onto
//                        wire Status codes, encode the response, append it
//                        to the connection's output buffer, and wake the
//                        event loop through an eventfd.
//
// Completion threads are shard-affine: each owns one lane (its own queue +
// cv), and a READ/WRITE is routed at submit time to lane shard_of(addr) %
// lanes. One shard's completions therefore settle in submission order on
// one thread — which also matches how the shard worker resolves the futures
// — and lanes never contend on a shared queue. SCRUB and cluster-handler
// work round-robins across lanes. Successful READ/WRITE responses are
// encoded straight into the connection's output buffer (append_frame_direct,
// no intermediate Frame); error paths still build a Frame.
//
// The only cross-thread state is each connection's output buffer (mutex),
// its in-flight counter / dead flag (atomics), the per-lane queues, and
// the dirty-connection list — everything else stays on the event loop.
//
// Admission control and lifecycle:
//   * max_connections: accepts over the cap are closed immediately.
//   * max_inflight_per_conn: a connection with that many unanswered
//     READ/WRITE/SCRUB frames gets Status::Overloaded (so does a submit
//     bounced by queue backpressure — QueueFullError maps to Overloaded).
//   * max_frame_bytes, protocol errors: one best-effort error frame, then
//     the connection closes (the decoder is poisoned anyway).
//   * idle_timeout: connections with no traffic and nothing in flight are
//     closed by the sweep.
//   * request timeout (5 s, fixed): a future still unready past it, or past
//     the frame's own deadline if that is sooner, answers Status::Timeout
//     (the shard still executes the op; only the response is abandoned).
//   * deadline shedding: a READ/WRITE whose declared deadline is shorter
//     than the target shard's expected queue wait answers Status::Busy.
//   * slow consumers (fixed): a connection whose pending output has not
//     moved a byte for 10 s, or whose un-flushed output passes 8 MiB, is
//     closed (counted as stalled_closed).
//   * stop(): graceful drain-then-stop — stop accepting, answer queued
//     frames with Status::Stopped, wait (bounded by drain_timeout) for
//     in-flight completions to flush, then close everything and join.
//     Idempotent and safe to call from several threads.
//
// Observability: net.accept / net.request instants and a net.flush span on
// the event loop, spe_net_* counters + a request latency histogram merged
// into the service's metric export by export_metrics() (what the METRICS
// opcode returns).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/chaos.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "runtime/memory_service.hpp"

namespace spe::net {

/// Optional cluster hook the server consults before its own dispatch. The
/// net layer stays cluster-agnostic: it hands every decoded request frame to
/// fast_path() and routes on the verdict, never interpreting the cluster
/// payloads itself (src/cluster implements this interface).
class ClusterHandler {
public:
  enum class Verdict : std::uint8_t {
    NotMine,  ///< normal server dispatch proceeds
    Respond,  ///< `response` is filled; send it as-is
    Defer,    ///< run slow_path() on a completion thread (may block)
  };

  virtual ~ClusterHandler() = default;

  /// Event-loop thread — must not block (no I/O, no fsync). Ownership
  /// checks and topology snapshots only.
  [[nodiscard]] virtual Verdict fast_path(const Frame& request, Frame& response) = 0;

  /// Completion thread — may block (journal fsync, peer network I/O).
  /// Must return a response frame and never throw out of the server's
  /// taxonomy; unexpected exceptions become Status::Internal.
  [[nodiscard]] virtual Frame slow_path(Frame&& request) = 0;

  /// Merged into the server's METRICS export.
  virtual void fill_metrics(obs::MetricsRegistry&) const {}
};

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; start() returns the kernel's pick
  unsigned max_connections = 64;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  unsigned max_inflight_per_conn = 64;  ///< 0 rejects every request (test hook)
  unsigned completion_threads = 2;
  std::chrono::milliseconds idle_timeout{30'000};    ///< 0 disables
  std::chrono::milliseconds drain_timeout{5'000};    ///< stop() in-flight bound
  /// Chaos injection on this server's frame I/O (nullptr = clean). The
  /// per-connection stream id is the accept sequence number, so a
  /// fixed-order connect sequence replays identical injections.
  std::shared_ptr<ChaosPolicy> chaos;
};

/// Plain copy of the server's counters at a point in time.
struct ServerCountersSnapshot {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  ///< over max_connections
  std::uint64_t connections_active = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t frames_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t overload_rejected = 0;
  std::uint64_t request_timeouts = 0;
  std::uint64_t idle_closed = 0;
  std::uint64_t busy_shed = 0;        ///< deadline-aware Busy rejections
  std::uint64_t stalled_closed = 0;   ///< output-stall / buffer-cap evictions
  std::uint64_t drain_aborted = 0;    ///< in-flight ops failed typed at drain expiry
  std::uint64_t requests_completed = 0;  ///< responses settled (any status)
  obs::Histogram::Snapshot request_latency;  ///< frame rx -> response settled
};

class Server {
public:
  /// The service must outlive the server.
  explicit Server(runtime::MemoryService& service, ServerConfig config = {});
  ~Server();  ///< stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Installs the cluster hook. Call before start(); the handler must
  /// outlive the server. Null detaches (single-node mode: the cluster
  /// opcodes answer BadRequest).
  void set_cluster_handler(ClusterHandler* handler) noexcept {
    cluster_ = handler;
  }

  /// Binds, listens, and starts the event-loop + completion threads.
  /// Returns the bound port. Throws std::runtime_error on socket failure.
  std::uint16_t start();

  /// Graceful drain-then-stop (see file comment). Idempotent; concurrent
  /// callers block until the first one finishes.
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool running() const noexcept {
    return started_.load(std::memory_order_acquire) &&
           !stop_done_flag_.load(std::memory_order_acquire);
  }

  [[nodiscard]] ServerCountersSnapshot counters() const;

  /// Requests submitted but not yet answered. 0 after stop() returns — the
  /// chaos campaign's "no stuck futures" assertion.
  [[nodiscard]] std::size_t pending_requests() const noexcept {
    return pending_count_.load(std::memory_order_acquire);
  }

  /// spe_net_* counters/gauges/histogram into `registry`.
  void fill_metrics(obs::MetricsRegistry& registry) const;

  /// Service metrics + net metrics in one deterministic export — the body
  /// of a METRICS response.
  [[nodiscard]] std::string export_metrics(
      obs::MetricsFormat format = obs::MetricsFormat::Prometheus) const;

private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;  ///< accept sequence number (log/trace handle)
    FrameDecoder decoder;
    std::mutex out_mutex;                ///< guards out/out_off (completion threads)
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::atomic<int> inflight{0};
    std::atomic<bool> dead{false};
    std::atomic<bool> chaos_kill{false};  ///< tx Reset decided; loop closes it
    std::atomic<std::uint64_t> chaos_tx_events{0};
    std::uint64_t chaos_rx_events = 0;  ///< event loop only
    bool want_write = false;   ///< event loop: EPOLLOUT armed
    bool closing = false;      ///< event loop: close once flushed + drained
    std::chrono::steady_clock::time_point last_activity;
    /// Last time flush() moved at least one byte while output was pending
    /// (guarded by out_mutex). Stall eviction compares against this.
    std::chrono::steady_clock::time_point last_progress;
  };

  struct Pending {
    enum class Kind : std::uint8_t {
      Read, Write, Scrub, Handler, Rotate
    } kind = Kind::Read;
    std::shared_ptr<Conn> conn;
    std::uint64_t request_id = 0;
    std::uint64_t deadline_ms = 0;  ///< op deadline; 0 = none
    unsigned lane = 0;  ///< completion lane chosen at submit (shard-affine)
    /// The authenticated tenant this request runs as (default for frames
    /// without the tenant extension). `admitted` means a per-tenant inflight
    /// slot is held and must be released when the request settles.
    std::uint32_t tenant = 0;
    bool admitted = false;
    std::uint32_t rotate_target = 0;  ///< Kind::Rotate: tenant to rotate
    std::chrono::steady_clock::time_point received;
    std::future<std::vector<std::uint8_t>> read_future;
    std::future<void> write_future;
    Frame handler_frame;  ///< Kind::Handler: the deferred cluster request
  };

  /// One completion thread's private work queue (see file comment).
  struct CompletionLane {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> queue;
  };

  struct Counters {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_rejected{0};
    std::atomic<std::uint64_t> connections_active{0};
    std::atomic<std::uint64_t> frames_rx{0};
    std::atomic<std::uint64_t> frames_tx{0};
    std::atomic<std::uint64_t> bytes_rx{0};
    std::atomic<std::uint64_t> bytes_tx{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> overload_rejected{0};
    std::atomic<std::uint64_t> request_timeouts{0};
    std::atomic<std::uint64_t> idle_closed{0};
    std::atomic<std::uint64_t> busy_shed{0};
    std::atomic<std::uint64_t> stalled_closed{0};
    std::atomic<std::uint64_t> drain_aborted{0};
    std::atomic<std::uint64_t> requests_completed{0};
    obs::Histogram request_latency;
  };

  void event_loop();
  void completion_loop(CompletionLane& lane);
  void accept_ready();
  void conn_readable(const std::shared_ptr<Conn>& conn);
  void handle_frame(const std::shared_ptr<Conn>& conn, Frame&& frame);
  void submit_request(const std::shared_ptr<Conn>& conn, Frame&& frame);
  /// Queues a cluster frame for ClusterHandler::slow_path on a completion
  /// thread (same admission control as submit_request).
  void submit_handler(const std::shared_ptr<Conn>& conn, Frame&& frame);
  [[nodiscard]] bool admit(const std::shared_ptr<Conn>& conn, const Frame& frame);
  void enqueue_pending(const std::shared_ptr<Conn>& conn, Pending&& pending);
  /// Event-loop side: enqueue a response and try to flush immediately.
  void respond_now(const std::shared_ptr<Conn>& conn, const Frame& frame);
  /// Counts a settled request and records its latency. Both deliver paths
  /// call it before the response reaches the connection, so a client that
  /// holds its response always finds the request counted.
  void count_completed(const Pending& pending);
  /// Completion-thread side: enqueue a response and wake the event loop.
  void deliver(const Pending& pending, const Frame& frame);
  /// Completion-thread side, zero-copy: encode an Ok response with this
  /// payload straight into the connection's output buffer and wake the
  /// event loop (no intermediate Frame).
  void deliver_direct(const Pending& pending, Opcode opcode,
                      std::span<const std::uint8_t> payload);
  /// The one tx encode path all three of the above funnel through: appends
  /// the encoded response under out_mutex, applying tx chaos. Returns false
  /// when the chaos decision swallowed the frame (nothing appended).
  /// `may_block` gates the Delay action (completion threads only — the
  /// event loop must never sleep).
  bool append_response(const std::shared_ptr<Conn>& conn, Opcode opcode,
                       Status status, std::uint64_t request_id,
                       std::span<const std::uint8_t> payload, bool may_block);
  /// Settles one pending request on its completion lane: waits the future
  /// (bounded by the request timeout), encodes and delivers the response.
  void finish_pending(Pending& pending);
  void flush(const std::shared_ptr<Conn>& conn);
  void set_want_write(Conn& conn, bool want);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void sweep_idle(std::chrono::steady_clock::time_point now);
  void wake() noexcept;

  runtime::MemoryService& service_;
  ServerConfig config_;
  ClusterHandler* cluster_ = nullptr;
  Counters counters_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t next_conn_id_ = 0;

  std::thread event_thread_;
  std::vector<std::thread> completion_threads_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  ///< event loop only

  std::vector<std::unique_ptr<CompletionLane>> lanes_;  ///< one per completion thread
  unsigned next_lane_ = 0;  ///< event loop only: round-robin for laneless work
  std::atomic<bool> completions_quit_{false};

  std::mutex dirty_mutex_;
  std::vector<std::shared_ptr<Conn>> dirty_;  ///< conns with fresh output

  std::atomic<std::size_t> pending_count_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  /// drain_timeout expired during stop(): finish_pending stops waiting on
  /// futures and answers the remainder with Status::Stopped (typed, never
  /// silently dropped).
  std::atomic<bool> drain_expired_{false};
  std::atomic<bool> quit_{false};
  std::atomic<bool> stop_started_{false};
  std::atomic<bool> stop_done_flag_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_done_ = false;
};

}  // namespace spe::net
