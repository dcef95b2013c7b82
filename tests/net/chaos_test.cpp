// Chaos injection + wire resilience tests (src/net): ChaosPolicy
// determinism and purity, the deadline extension and BUSY status, decoder
// stream-resync after mid-stream corruption, exhaustive enum to_string
// round-trips, and an end-to-end chaotic storm on loopback asserting every
// failure surfaces typed. Carries both the "net" and "chaos" ctest labels.

#include "net/chaos.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

namespace spe::net {
namespace {

using namespace std::chrono_literals;

runtime::ServiceConfig small_service_config() {
  runtime::ServiceConfig cfg;
  cfg.shards = 2;
  cfg.worker_threads = 2;
  cfg.queue_capacity = 64;
  cfg.scavenger_enabled = false;
  return cfg;
}

ChaosConfig storm_config(std::uint64_t seed) {
  ChaosConfig cfg;
  cfg.seed = seed;
  cfg.rates = {.drop = 0.2, .delay = 0.2, .corrupt = 0.1, .truncate = 0.1,
               .duplicate = 0.1, .reset = 0.1};
  cfg.delay_max = std::chrono::milliseconds{2};
  return cfg;
}

// --- ChaosPolicy ------------------------------------------------------------

TEST(Chaos, DecisionsAreDeterministicAndPure) {
  ChaosPolicy a(storm_config(7)), b(storm_config(7));
  for (std::uint64_t event = 0; event < 512; ++event) {
    const ChaosSite site{.stream = 3, .event = event, .opcode = 2, .rx = false};
    const ChaosAction first = a.decide(site);
    EXPECT_EQ(first, a.decide(site)) << "decide() must be pure";
    EXPECT_EQ(first, b.decide(site)) << "same seed must replay the schedule";
  }
  // decide() bumps no counters — they belong to the hook owners.
  EXPECT_EQ(a.stats().total(), 0u);
}

TEST(Chaos, SeedAndSiteChangeTheSchedule) {
  ChaosPolicy a(storm_config(7)), b(storm_config(8));
  unsigned diff = 0, tx_rx_diff = 0;
  for (std::uint64_t event = 0; event < 512; ++event) {
    const ChaosSite tx{.stream = 3, .event = event, .opcode = 2, .rx = false};
    const ChaosSite rx{.stream = 3, .event = event, .opcode = 2, .rx = true};
    if (a.decide(tx) != b.decide(tx)) ++diff;
    if (a.decide(tx) != a.decide(rx)) ++tx_rx_diff;
  }
  EXPECT_GT(diff, 0u) << "a different seed must change the schedule";
  EXPECT_GT(tx_rx_diff, 0u) << "direction is part of the site";
}

TEST(Chaos, ZeroRatesDisable) {
  ChaosConfig cfg;
  cfg.seed = 99;  // rates all zero
  ChaosPolicy policy(cfg);
  EXPECT_FALSE(policy.enabled());
  for (std::uint64_t event = 0; event < 64; ++event)
    EXPECT_EQ(policy.decide({.stream = 1, .event = event, .opcode = 2, .rx = false}),
              ChaosAction::None);
}

TEST(Chaos, DerivedParametersStayInBounds) {
  ChaosPolicy policy(storm_config(13));
  for (std::uint64_t event = 0; event < 256; ++event) {
    const ChaosSite site{.stream = 5, .event = event, .opcode = 3, .rx = true};
    const auto delay = policy.delay_for(site);
    EXPECT_GE(delay, policy.config().delay_min);
    EXPECT_LE(delay, policy.config().delay_max);
    EXPECT_NE(policy.corrupt_mask(site), 0u) << "a zero mask would flip nothing";
    EXPECT_LT(policy.corrupt_offset(site, 100), 100u);
    EXPECT_LT(policy.truncate_len(site, 100), 100u);
  }
}

TEST(Chaos, StatsNoteAndRender) {
  ChaosStats stats;
  stats.note(ChaosAction::Drop);
  stats.note(ChaosAction::Drop);
  stats.note(ChaosAction::Reset);
  stats.note(ChaosAction::None);  // not counted
  EXPECT_EQ(stats.total(), 3u);
  const std::string render = stats.to_string();
  EXPECT_NE(render.find("drop=2"), std::string::npos) << render;
  EXPECT_NE(render.find("reset=1"), std::string::npos) << render;
}

// --- enum to_string round-trips ---------------------------------------------

TEST(Chaos, ActionToStringCoversEveryEnumerator) {
  for (const ChaosAction action :
       {ChaosAction::None, ChaosAction::Drop, ChaosAction::Delay,
        ChaosAction::Corrupt, ChaosAction::Truncate, ChaosAction::Duplicate,
        ChaosAction::Reset}) {
    const std::string name = to_string(action);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(name.find('?'), std::string::npos) << name;
    EXPECT_EQ(name.find("unknown"), std::string::npos) << name;
  }
}

TEST(Wire, OpcodeToStringCoversEveryValidEnumerator) {
  std::set<std::string> names;
  for (unsigned raw = 0; raw < 256; ++raw) {
    if (!opcode_valid(static_cast<std::uint8_t>(raw))) continue;
    const std::string name = to_string(static_cast<Opcode>(raw));
    EXPECT_EQ(name.find('?'), std::string::npos) << "opcode " << raw << ": " << name;
    EXPECT_EQ(name.find("unknown"), std::string::npos) << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_GE(names.size(), 7u);
}

TEST(Wire, StatusToStringCoversEveryValidEnumerator) {
  std::set<std::string> names;
  for (unsigned raw = 0; raw < 256; ++raw) {
    if (!status_valid(static_cast<std::uint8_t>(raw))) continue;
    const std::string name = to_string(static_cast<Status>(raw));
    EXPECT_EQ(name.find('?'), std::string::npos) << "status " << raw << ": " << name;
    EXPECT_EQ(name.find("unknown"), std::string::npos) << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_GE(names.size(), 13u);
}

// --- deadline extension + BUSY ----------------------------------------------

TEST(Wire, DeadlineExtensionRoundTrips) {
  Frame frame = make_read_request(42, 7);
  frame.deadline_ms = 1234;
  std::vector<std::uint8_t> bytes;
  append_frame(bytes, frame);

  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame out;
  ASSERT_EQ(decoder.next(out), DecodeStatus::Ok);
  EXPECT_EQ(out.deadline_ms, 1234u);
  std::uint64_t addr = 0;
  WireErrorCode err{};
  ASSERT_TRUE(parse_read_request(out, addr, err)) << "payload must be stripped";
  EXPECT_EQ(addr, 7u);
}

TEST(Wire, UnknownFlagBitsAreReservedNonzero) {
  std::vector<std::uint8_t> bytes;
  append_frame(bytes, make_ping(1));
  for (unsigned bit = 0; bit < 8; ++bit) {
    const auto flag = static_cast<std::uint8_t>(1u << bit);
    if ((flag & kKnownFlags) != 0) continue;
    std::vector<std::uint8_t> flagged = bytes;
    flagged[7] = flag;
    FrameDecoder decoder;
    decoder.feed(flagged);
    Frame out;
    ASSERT_EQ(decoder.next(out), DecodeStatus::Error) << "bit " << bit;
    EXPECT_EQ(decoder.error(), WireErrorCode::ReservedNonzero);
  }
}

TEST(Wire, DeadlineFlagWithShortPayloadIsBadPayload) {
  Frame frame = make_scrub_request(5);  // empty payload
  frame.deadline_ms = 0;
  std::vector<std::uint8_t> bytes;
  append_frame(bytes, frame);
  bytes[7] = kFlagDeadline;  // announces 8 ext bytes the payload lacks
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame out;
  ASSERT_EQ(decoder.next(out), DecodeStatus::Error)
      << "flag promises bytes the frame does not carry";
}

TEST(Wire, BusyResponseRoundTrips) {
  const Frame request = make_read_request(9, 1);
  const Frame busy = make_busy_response(request, 250, "queue full");
  EXPECT_EQ(busy.status, Status::Busy);
  EXPECT_EQ(busy.request_id, 9u);

  std::vector<std::uint8_t> bytes;
  append_frame(bytes, busy);
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame out;
  ASSERT_EQ(decoder.next(out), DecodeStatus::Ok);
  std::uint64_t retry_after = 0;
  WireErrorCode err{};
  ASSERT_TRUE(parse_busy_response(out, retry_after, err));
  EXPECT_EQ(retry_after, 250u);
}

// --- decoder stream resync --------------------------------------------------

TEST(Wire, MidStreamCorruptionPoisonsAndReconnectRecovers) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, make_ping(1));
  const std::size_t second_at = stream.size();
  append_frame(stream, make_ping(2));
  append_frame(stream, make_ping(3));
  stream[second_at] ^= 0x40;  // corrupt frame 2's magic

  FrameDecoder decoder;
  decoder.feed(stream);
  Frame out;
  ASSERT_EQ(decoder.next(out), DecodeStatus::Ok);
  EXPECT_EQ(out.request_id, 1u);
  ASSERT_EQ(decoder.next(out), DecodeStatus::Error);
  const WireErrorCode poisoned = decoder.error();
  EXPECT_NE(poisoned, WireErrorCode::None);
  // Poisoned for good: frame 3 is intact but unreachable on this stream.
  ASSERT_EQ(decoder.next(out), DecodeStatus::Error);
  EXPECT_EQ(decoder.error(), poisoned);

  // A reconnect gets a fresh decoder and a re-sent stream — full recovery.
  FrameDecoder fresh;
  std::vector<std::uint8_t> resent;
  append_frame(resent, make_ping(2));
  append_frame(resent, make_ping(3));
  fresh.feed(resent);
  ASSERT_EQ(fresh.next(out), DecodeStatus::Ok);
  EXPECT_EQ(out.request_id, 2u);
  ASSERT_EQ(fresh.next(out), DecodeStatus::Ok);
  EXPECT_EQ(out.request_id, 3u);
  EXPECT_EQ(fresh.finish(), WireErrorCode::None);
}

// --- end-to-end chaotic storm -----------------------------------------------

// Client-side chaos against a clean server: every op must either succeed
// with correct data or fail with a typed NetError — no silent corruption,
// no untyped exceptions, no hangs (io_deadline bounds every wait).
TEST(ChaosServer, ChaoticClientStormSurfacesOnlyTypedErrors) {
  runtime::MemoryService service(small_service_config());
  Server server(service, {});
  const std::uint16_t port = server.start();

  auto chaos = std::make_shared<ChaosPolicy>(storm_config(0xC4A05));
  ClientConfig cfg;
  cfg.port = port;
  cfg.io_deadline = 300ms;
  cfg.connect_retries = 3;
  cfg.connect_retry_backoff = 5ms;
  cfg.chaos = chaos;
  cfg.chaos_stream = 1;
  Client client(cfg);

  std::vector<std::uint8_t> block(service.block_bytes(), 0xAB);
  std::vector<bool> written(8, false);
  unsigned ok = 0, typed = 0;
  for (unsigned i = 0; i < 80; ++i) {
    const std::uint64_t addr = i % written.size();
    try {
      client.connect();  // no-op unless a reset closed the socket
      if (i % 2 == 0) {
        client.write_block(addr, block);
        written[addr] = true;
      } else if (written[addr]) {
        EXPECT_EQ(client.read_block(addr), block) << "silent corruption at " << addr;
      }
      ++ok;
    } catch (const NetError&) {
      ++typed;  // dropped/corrupted/truncated/reset — all fine, all typed
    }
  }
  EXPECT_GT(ok, 0u) << "the storm should let some ops through";
  EXPECT_GT(chaos->stats().total(), 0u) << "the storm should have landed injections";
  server.stop();
  service.stop();
}

// Server-side chaos against a clean client: same taxonomy guarantee from
// the other side of the wire.
TEST(ChaosServer, ChaoticServerStormSurfacesOnlyTypedErrors) {
  runtime::MemoryService service(small_service_config());
  ServerConfig server_cfg;
  auto chaos = std::make_shared<ChaosPolicy>(storm_config(0x5E41));
  server_cfg.chaos = chaos;
  Server server(service, server_cfg);
  const std::uint16_t port = server.start();

  ClientConfig cfg;
  cfg.port = port;
  cfg.io_deadline = 300ms;
  cfg.connect_retries = 3;
  cfg.connect_retry_backoff = 5ms;
  Client client(cfg);

  std::vector<std::uint8_t> block(service.block_bytes(), 0x5C);
  bool written = false;
  unsigned ok = 0;
  for (unsigned i = 0; i < 80; ++i) {
    try {
      client.connect();
      if (i % 2 == 0) {
        client.write_block(3, block);
        written = true;
      } else if (written) {
        EXPECT_EQ(client.read_block(3), block) << "silent corruption";
      }
      ++ok;
    } catch (const NetError&) {
      // typed — expected under the storm
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(chaos->stats().total(), 0u);
  server.stop();
  service.stop();
}

}  // namespace
}  // namespace spe::net
