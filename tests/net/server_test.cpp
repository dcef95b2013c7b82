// Loopback integration tests for the epoll server + blocking client
// (src/net): request round-trips, admission control, protocol-error
// handling, the slow-consumer output cap, abrupt client death, graceful
// stop under load, and idle sweeping. Everything binds 127.0.0.1 on an ephemeral port; the suite is
// part of the "net" ctest label, which CI also runs under TSan.

#include "net/client.hpp"
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>
#include <vector>

namespace spe::net {
namespace {

using namespace std::chrono_literals;

runtime::ServiceConfig small_service_config() {
  runtime::ServiceConfig cfg;
  cfg.shards = 2;
  cfg.worker_threads = 2;
  cfg.queue_capacity = 64;
  cfg.scavenger_enabled = false;  // keep tests deterministic and quick
  return cfg;
}

struct Loopback {
  explicit Loopback(ServerConfig server_cfg = {},
                    runtime::ServiceConfig service_cfg = small_service_config())
      : service(service_cfg), server(service, server_cfg) {
    port = server.start();
  }

  Client make_client() {
    Client client({.port = port});
    client.connect();
    return client;
  }

  std::vector<std::uint8_t> block_pattern(std::uint8_t tag) const {
    std::vector<std::uint8_t> data(service.block_bytes());
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<std::uint8_t>(tag * 31 + i);
    return data;
  }

  runtime::MemoryService service;
  Server server;
  std::uint16_t port = 0;
};

TEST(NetServer, ReadWriteRoundTrip) {
  Loopback net;
  Client client = net.make_client();
  for (std::uint8_t tag = 0; tag < 4; ++tag) {
    const auto data = net.block_pattern(tag);
    client.write_block(tag, data);
    EXPECT_EQ(client.read_block(tag), data) << "block " << int(tag);
  }
  const ServerCountersSnapshot c = net.server.counters();
  EXPECT_EQ(c.connections_accepted, 1u);
  EXPECT_EQ(c.frames_rx, 8u);
  EXPECT_EQ(c.requests_completed, 8u);
  EXPECT_EQ(c.protocol_errors, 0u);
}

TEST(NetServer, PingEchoesPayload) {
  Loopback net;
  Client client = net.make_client();
  const std::vector<std::uint8_t> echo = {1, 2, 3, 5, 8, 13};
  const std::uint64_t id = client.send_ping(echo);
  const Frame reply = client.recv_response();
  EXPECT_EQ(reply.request_id, id);
  EXPECT_EQ(reply.status, Status::Ok);
  EXPECT_EQ(reply.payload, echo);
}

TEST(NetServer, MetricsOpcodeReturnsCombinedExport) {
  Loopback net;
  Client client = net.make_client();
  client.write_block(1, net.block_pattern(1));
  (void)client.read_block(1);
  const std::string text = client.metrics();
  // Service-side and net-side metrics ride in one export.
  EXPECT_NE(text.find("spe_reads_total"), std::string::npos);
  EXPECT_NE(text.find("spe_net_frames_rx_total"), std::string::npos);
  EXPECT_NE(text.find("spe_net_protocol_errors_total 0"), std::string::npos);
}

TEST(NetServer, ScrubReportsBlocksTouched) {
  Loopback net;
  Client client = net.make_client();
  for (std::uint8_t tag = 0; tag < 3; ++tag)
    client.write_block(tag, net.block_pattern(tag));
  EXPECT_GE(client.scrub(), 3u);
}

TEST(NetServer, WrongSizeWriteRejectedAsBadRequest) {
  Loopback net;
  Client client = net.make_client();
  const std::vector<std::uint8_t> runt(10, 0xEE);
  try {
    client.write_block(0, runt);
    FAIL() << "runt write was accepted";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), Status::BadRequest);
  }
  // The connection survives a BadRequest (unlike a protocol error).
  client.write_block(0, net.block_pattern(0));
}

TEST(NetServer, InflightCapRejectsWithOverloaded) {
  ServerConfig cfg;
  cfg.max_inflight_per_conn = 0;  // documented test hook: reject everything
  Loopback net(cfg);
  Client client = net.make_client();
  try {
    (void)client.read_block(0);
    FAIL() << "request was accepted with a zero in-flight cap";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), Status::Overloaded);
  }
  EXPECT_GE(net.server.counters().overload_rejected, 1u);
}

TEST(NetServer, GarbageBytesGetErrorFrameThenClose) {
  Loopback net;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(net.port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof garbage - 1, 0), 0);

  // Expect one decodable error frame (BadRequest + reason) and then EOF.
  FrameDecoder decoder;
  Frame reply;
  bool got_reply = false;
  for (;;) {
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    decoder.feed(buf, static_cast<std::size_t>(n));
    if (decoder.next(reply) == DecodeStatus::Ok) got_reply = true;
  }
  ::close(fd);
  ASSERT_TRUE(got_reply);
  EXPECT_EQ(reply.status, Status::BadRequest);
  EXPECT_GE(net.server.counters().protocol_errors, 1u);
}

TEST(NetServer, OversizedFrameIsRejectedAndConnectionCloses) {
  ServerConfig cfg;
  cfg.max_frame_bytes = 256;
  Loopback net(cfg);
  Client client = net.make_client();
  Frame big = make_ping(1);
  big.payload.assign(4096, 0xAA);
  // send_frame is private; PING with a fat echo goes through send_ping.
  (void)client.send_ping(big.payload);
  const Frame reply = client.recv_response();
  EXPECT_EQ(reply.status, Status::BadRequest);
  // The server closed the poisoned connection; the next RPC fails.
  EXPECT_THROW((void)client.read_block(0), NetError);
}

TEST(NetServer, SlowConsumerPastOutputCapIsClosed) {
  Loopback net;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A tiny receive window keeps the kernel from absorbing the echoes, so
  // they pile up in the server's per-connection output buffer.
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(net.port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  // ~24 MiB of PING echoes that are never read: three times the 8 MiB cap.
  // Once the server closes the connection, send fails (no SIGPIPE) and the
  // burst stops early.
  const std::vector<std::uint8_t> echo(kDefaultMaxFrameBytes - 4096, 0x5A);
  for (std::uint64_t id = 1; id <= 24; ++id) {
    const std::vector<std::uint8_t> bytes = encode_frame(make_ping(id, echo));
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    if (off < bytes.size()) break;
  }

  // Well under the 10 s stall timeout, so only the cap can close it in time.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (net.server.counters().stalled_closed == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(10ms);
  EXPECT_GE(net.server.counters().stalled_closed, 1u);

  // The server closed its end: draining what the kernel already buffered
  // ends in EOF or a reset, not a receive timeout.
  const timeval timeout{5, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout), 0);
  bool closed = false;
  for (;;) {
    std::uint8_t buf[1 << 16];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) continue;
    closed = n == 0 || errno == ECONNRESET;
    break;
  }
  ::close(fd);
  EXPECT_TRUE(closed);
  EXPECT_TRUE(net.server.running());
}

TEST(NetServer, SurvivesAbruptClientDeathMidLoad) {
  Loopback net;
  {
    Client doomed = net.make_client();
    const auto data = net.block_pattern(9);
    // Pipeline a burst, then vanish without reading a single response.
    for (int i = 0; i < 16; ++i) (void)doomed.send_write(100 + i, data);
    doomed.close();
  }
  // The server must absorb the orphaned completions and keep serving.
  Client client = net.make_client();
  const auto data = net.block_pattern(3);
  client.write_block(3, data);
  EXPECT_EQ(client.read_block(3), data);
  EXPECT_TRUE(net.server.running());
}

TEST(NetServer, GracefulStopDrainsInflightLoad) {
  Loopback net;
  Client client = net.make_client();
  const auto data = net.block_pattern(5);
  for (int i = 0; i < 12; ++i) (void)client.send_write(200 + i, data);
  net.server.stop();  // must answer or drop the burst, never hang
  EXPECT_FALSE(net.server.running());

  // Whatever responses were flushed before the close are well-formed.
  unsigned ok = 0;
  try {
    for (int i = 0; i < 12; ++i) {
      const Frame f = client.recv_response();
      if (f.status == Status::Ok || f.status == Status::Stopped) ++ok;
    }
  } catch (const NetError&) {
    // EOF once the server closed the socket — expected.
  }
  EXPECT_LE(ok, 12u);
  // The service itself is untouched by a server stop.
  net.service.write(1, data);
  EXPECT_EQ(net.service.read(1), data);
}

TEST(NetServer, StopIsIdempotentAndConcurrent) {
  Loopback net;
  std::thread a([&] { net.server.stop(); });
  std::thread b([&] { net.server.stop(); });
  a.join();
  b.join();
  net.server.stop();  // and again, after it is already fully stopped
  EXPECT_FALSE(net.server.running());
}

TEST(NetServer, IdleConnectionsAreSwept) {
  ServerConfig cfg;
  cfg.idle_timeout = 200ms;
  Loopback net(cfg);
  Client client = net.make_client();
  client.ping();  // prove liveness first
  std::this_thread::sleep_for(800ms);
  EXPECT_THROW(client.ping(), NetError);
  EXPECT_GE(net.server.counters().idle_closed, 1u);
}

TEST(NetServer, RejectsConnectionsOverTheCap) {
  ServerConfig cfg;
  cfg.max_connections = 1;
  Loopback net(cfg);
  Client first = net.make_client();
  first.ping();
  Client second({.port = net.port, .connect_retries = 0, .io_deadline = 2000ms});
  // The TCP connect may succeed before the server closes the excess socket,
  // so the rejection surfaces at connect or on the first RPC.
  try {
    second.connect();
    second.ping();
    FAIL() << "second connection served beyond max_connections=1";
  } catch (const NetError&) {
  }
  EXPECT_GE(net.server.counters().connections_rejected, 1u);
  first.ping();  // the admitted connection is unaffected
}

}  // namespace
}  // namespace spe::net
