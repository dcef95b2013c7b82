// Client-side resilience primitives (src/net/resilience) plus the server's
// deadline-aware load shedding: deterministic jittered backoff, the
// circuit-breaker state machine, and BUSY shedding when a frame's
// declared deadline is already smaller than the shard's expected queue
// wait. Carries both the "net" and "chaos" ctest labels.

#include "net/client.hpp"
#include "net/resilience.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace spe::net {
namespace {

using namespace std::chrono_literals;

// --- retry_backoff ----------------------------------------------------------

TEST(Resilience, BackoffWithoutJitterDoublesExactlyAndCaps) {
  RetryConfig cfg;
  cfg.backoff_base = 2ms;
  cfg.backoff_max = 50ms;
  cfg.jitter = 0.0;
  EXPECT_EQ(retry_backoff(cfg, 1, 0), 2ms);
  EXPECT_EQ(retry_backoff(cfg, 1, 1), 4ms);
  EXPECT_EQ(retry_backoff(cfg, 1, 2), 8ms);
  EXPECT_EQ(retry_backoff(cfg, 1, 3), 16ms);
  EXPECT_EQ(retry_backoff(cfg, 1, 4), 32ms);
  EXPECT_EQ(retry_backoff(cfg, 1, 5), 50ms) << "capped at backoff_max";
  EXPECT_EQ(retry_backoff(cfg, 1, 60), 50ms) << "no overflow at high attempts";
}

TEST(Resilience, BackoffIsDeterministicAndJitterStaysInBounds) {
  RetryConfig cfg;  // default jitter 0.5
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    for (const std::uint64_t stream : {1ull, 2ull, 99ull}) {
      const auto a = retry_backoff(cfg, stream, attempt);
      EXPECT_EQ(a, retry_backoff(cfg, stream, attempt)) << "must be pure";
      // Undiluted exponential value this attempt would produce.
      std::int64_t full = cfg.backoff_base.count();
      for (unsigned i = 0; i < attempt && full < cfg.backoff_max.count(); ++i)
        full *= 2;
      full = std::min<std::int64_t>(full, cfg.backoff_max.count());
      EXPECT_LE(a.count(), full);
      // Downward jitter removes at most `jitter` of the value (+1 truncation).
      EXPECT_GE(a.count(),
                static_cast<std::int64_t>(static_cast<double>(full) *
                                          (1.0 - cfg.jitter)) - 1);
    }
  }
  RetryConfig other = cfg;
  other.jitter_seed ^= 0xDEADull;
  unsigned diff = 0;
  for (unsigned attempt = 0; attempt < 12; ++attempt)
    if (retry_backoff(cfg, 7, attempt) != retry_backoff(other, 7, attempt)) ++diff;
  EXPECT_GT(diff, 0u) << "the jitter seed must matter";
}

TEST(Resilience, BackoffZeroBaseMeansNoPause) {
  RetryConfig cfg;
  cfg.backoff_base = 0ms;
  EXPECT_EQ(retry_backoff(cfg, 1, 5), 0ms);
}

// --- CircuitBreaker ---------------------------------------------------------

TEST(Resilience, BreakerTripsAfterConsecutiveFailuresOnly) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 3;
  CircuitBreaker breaker(cfg);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
  EXPECT_TRUE(breaker.allow());

  // A success in the middle resets the streak — no trip after 4 failures.
  breaker.on_failure();
  breaker.on_failure();
  breaker.on_success();
  breaker.on_failure();
  breaker.on_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
  EXPECT_EQ(breaker.trips(), 0u);

  breaker.on_failure();  // third consecutive
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(breaker.allow()) << "open breaker fails fast";
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(Resilience, BreakerHalfOpenProbeSuccessCloses) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_timeout = 20ms;
  cfg.half_open_probes = 1;
  CircuitBreaker breaker(cfg);
  breaker.on_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(breaker.allow());

  std::this_thread::sleep_for(30ms);
  EXPECT_TRUE(breaker.allow()) << "open_timeout elapsed: admit one probe";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
  EXPECT_FALSE(breaker.allow()) << "only half_open_probes concurrent probes";

  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
  EXPECT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(Resilience, BreakerHalfOpenProbeFailureReopens) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_timeout = 20ms;
  CircuitBreaker breaker(cfg);
  breaker.on_failure();
  std::this_thread::sleep_for(30ms);
  ASSERT_TRUE(breaker.allow());  // the probe
  breaker.on_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(breaker.allow()) << "the open timer restarted";
  EXPECT_EQ(breaker.trips(), 2u);
}

TEST(Resilience, BreakerStateToStringCoversEveryEnumerator) {
  for (const CircuitBreaker::State state :
       {CircuitBreaker::State::Closed, CircuitBreaker::State::Open,
        CircuitBreaker::State::HalfOpen}) {
    const std::string name = to_string(state);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(name.find('?'), std::string::npos) << name;
    EXPECT_EQ(name.find("unknown"), std::string::npos) << name;
  }
}

// --- typed error taxonomy ---------------------------------------------------

TEST(Resilience, TypedErrorsAreRuntimeErrors) {
  // The campaign's catch ladder relies on each being its own type AND a
  // std::runtime_error (so "untyped" detection can use a catch-all).
  EXPECT_THROW(throw AmbiguousResultError("w"), std::runtime_error);
  EXPECT_THROW(throw CircuitOpenError("w"), std::runtime_error);
  EXPECT_THROW(throw DeadlineExceededError("w"), std::runtime_error);
  try {
    throw AmbiguousResultError("write outcome unknown");
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown"), std::string::npos);
  }
}

// --- server-side deadline load shedding ------------------------------------

TEST(Resilience, ServerShedsBusyWhenQueueWaitExceedsDeadline) {
  runtime::ServiceConfig service_cfg;
  service_cfg.shards = 2;
  service_cfg.worker_threads = 2;
  service_cfg.queue_capacity = 256;
  service_cfg.scavenger_enabled = false;
  runtime::MemoryService service(service_cfg);
  // Preset the EWMA so one queued request implies a ~1000 s expected wait —
  // any later frame declaring a millisecond deadline must be shed.
  for (unsigned s = 0; s < service.shard_count(); ++s)
    service.shard(s).counters().note_execute_ns(1'000'000'000'000ull);
  Server server(service, {});
  const std::uint16_t port = server.start();

  // Raw socket: pipeline a burst of v3 WRITE frames with 1 ms deadlines in
  // one send() so they dispatch back-to-back while the shard queue is
  // non-empty.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  const unsigned kBurst = 64;
  std::vector<std::uint8_t> block(service.block_bytes(), 0x3D);
  std::vector<std::uint8_t> bytes;
  for (unsigned i = 0; i < kBurst; ++i) {
    Frame frame = make_write_request(i + 1, i % 4, block);
    frame.deadline_ms = 1;
    append_frame(bytes, frame);
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }

  FrameDecoder decoder;
  unsigned received = 0, busy = 0;
  Frame reply;
  while (received < kBurst) {
    std::uint8_t buf[8192];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0) << "connection died before all responses arrived";
    decoder.feed(buf, static_cast<std::size_t>(n));
    while (decoder.next(reply) == DecodeStatus::Ok) {
      ++received;
      // Every outcome must be one of the three deadline-era statuses; a
      // shed must carry a usable retry-after hint.
      ASSERT_TRUE(reply.status == Status::Ok || reply.status == Status::Busy ||
                  reply.status == Status::Timeout)
          << to_string(reply.status);
      if (reply.status == Status::Busy) {
        ++busy;
        std::uint64_t retry_after = 0;
        WireErrorCode err{};
        ASSERT_TRUE(parse_busy_response(reply, retry_after, err));
        EXPECT_GT(retry_after, 0u);
      }
    }
  }
  ::close(fd);
  EXPECT_GE(busy, 1u) << "a poisoned EWMA plus 1 ms deadlines must shed";
  EXPECT_GE(server.counters().busy_shed, busy);

  // Shedding never blocks undeadlined work: a plain client still writes.
  Client client({.port = port});
  client.connect();
  client.write_block(0, block);
  EXPECT_EQ(client.read_block(0), block);
  server.stop();
  service.stop();
}

// A frame with a generous deadline sails through untouched.
TEST(Resilience, GenerousDeadlineIsNotShed) {
  runtime::ServiceConfig service_cfg;
  service_cfg.shards = 2;
  service_cfg.worker_threads = 2;
  service_cfg.queue_capacity = 64;
  service_cfg.scavenger_enabled = false;
  runtime::MemoryService service(service_cfg);
  Server server(service, {});
  const std::uint16_t port = server.start();
  Client client({.port = port});
  client.connect();

  std::vector<std::uint8_t> block(service.block_bytes(), 0x77);
  Frame write = make_write_request(0, 2, block);
  write.deadline_ms = 60'000;
  Frame reply = client.call(write);
  EXPECT_EQ(reply.status, Status::Ok);

  Frame read = make_read_request(0, 2);
  read.deadline_ms = 60'000;
  reply = client.call(read);
  ASSERT_EQ(reply.status, Status::Ok);
  EXPECT_EQ(reply.payload, block);
  EXPECT_EQ(server.counters().busy_shed, 0u);
  server.stop();
  service.stop();
}

}  // namespace
}  // namespace spe::net
