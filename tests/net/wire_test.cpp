// Wire codec tests (src/net/wire): encode/decode round-trip properties over
// randomized frames and chunkings, plus a corpus of truncated and
// bit-flipped frames asserting every malformed stream surfaces as a typed
// WireErrorCode — never a crash, never silently corrupt data. Run under
// ASan in CI (ctest -L net).

#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace spe::net {
namespace {

Frame random_frame(std::mt19937_64& rng) {
  static constexpr Opcode kOps[] = {Opcode::Ping, Opcode::Read, Opcode::Write,
                                    Opcode::Scrub, Opcode::Metrics};
  Frame f;
  f.opcode = kOps[rng() % std::size(kOps)];
  f.status = static_cast<Status>(rng() % 9);
  f.request_id = rng();
  f.payload.resize(rng() % 1500);
  for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng());
  return f;
}

bool frames_equal(const Frame& a, const Frame& b) {
  return a.opcode == b.opcode && a.status == b.status &&
         a.request_id == b.request_id && a.payload == b.payload;
}

TEST(WireCodec, RoundTripRandomFramesAndChunkings) {
  std::mt19937_64 rng(0xC0DEC);
  for (int iter = 0; iter < 200; ++iter) {
    const unsigned frame_count = 1 + rng() % 5;
    std::vector<Frame> sent;
    std::vector<std::uint8_t> stream;
    for (unsigned i = 0; i < frame_count; ++i) {
      sent.push_back(random_frame(rng));
      append_frame(stream, sent.back());
    }

    // Feed the stream in random-sized chunks (1..97 bytes) so every header/
    // payload boundary gets split at some iteration.
    FrameDecoder decoder;
    std::vector<Frame> got;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t chunk = std::min<std::size_t>(1 + rng() % 97, stream.size() - pos);
      decoder.feed(stream.data() + pos, chunk);
      pos += chunk;
      Frame f;
      while (decoder.next(f) == DecodeStatus::Ok) got.push_back(f);
      ASSERT_EQ(decoder.error(), WireErrorCode::None);
    }

    ASSERT_EQ(got.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i)
      EXPECT_TRUE(frames_equal(sent[i], got[i])) << "frame " << i;
    EXPECT_EQ(decoder.finish(), WireErrorCode::None);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(WireCodec, EveryTruncationPointReportsTruncatedNeverCrashes) {
  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  const std::vector<std::uint8_t> stream =
      encode_frame(make_write_request(0xAB, 7, data));

  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(stream.data(), cut);
    Frame f;
    ASSERT_EQ(decoder.next(f), DecodeStatus::NeedMore) << "cut at " << cut;
    EXPECT_EQ(decoder.finish(),
              cut == 0 ? WireErrorCode::None : WireErrorCode::TruncatedPayload)
        << "cut at " << cut;
  }
}

// Flip every single bit of an encoded frame and assert the decoder either
// reports the typed error that region implies, or (for fields the CRC does
// not cover, like the request id) decodes a frame that differs exactly
// there. No flip may crash, hang, or yield the original frame.
TEST(WireCodec, BitFlipCorpusYieldsTypedErrors) {
  const std::uint64_t addr = 0x1122334455667788ULL;
  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 37 + 1);
  const Frame original = make_write_request(0x0101, addr, data);
  const std::vector<std::uint8_t> stream = encode_frame(original);

  for (std::size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = stream;
      flipped[byte] ^= static_cast<std::uint8_t>(1 << bit);

      FrameDecoder decoder;
      decoder.feed(flipped.data(), flipped.size());
      Frame f;
      const DecodeStatus status = decoder.next(f);
      SCOPED_TRACE("byte " + std::to_string(byte) + " bit " + std::to_string(bit));

      if (byte < 4) {  // magic
        ASSERT_EQ(status, DecodeStatus::Error);
        EXPECT_EQ(decoder.error(), WireErrorCode::BadMagic);
      } else if (byte == 4) {  // version: only kWireVersion is served
        ASSERT_EQ(status, DecodeStatus::Error);
        EXPECT_EQ(decoder.error(), WireErrorCode::BadVersion);
      } else if (byte == 5) {  // opcode: either another valid opcode or typed
        if (status == DecodeStatus::Ok) {
          EXPECT_NE(f.opcode, original.opcode);
          EXPECT_EQ(f.payload, original.payload);
        } else {
          ASSERT_EQ(status, DecodeStatus::Error);
          EXPECT_EQ(decoder.error(), WireErrorCode::BadOpcode);
        }
      } else if (byte == 6) {  // status byte
        if (status == DecodeStatus::Ok) {
          EXPECT_NE(f.status, original.status);
          EXPECT_EQ(f.payload, original.payload);
        } else {
          ASSERT_EQ(status, DecodeStatus::Error);
          EXPECT_EQ(decoder.error(), WireErrorCode::BadStatus);
        }
      } else if (byte == 7) {  // flags (v3 deadline bit, v4 tenant bit)
        if ((flipped[byte] & ~kKnownFlags) != 0) {
          ASSERT_EQ(status, DecodeStatus::Error);
          EXPECT_EQ(decoder.error(), WireErrorCode::ReservedNonzero);
        } else if ((flipped[byte] & kFlagTenant) != 0) {
          // A lone kFlagTenant bit reinterprets the payload's first 12
          // bytes as the tenant extension — a structurally valid frame,
          // but never byte-identical to the original.
          ASSERT_EQ(status, DecodeStatus::Ok);
          EXPECT_TRUE(f.has_tenant);
          EXPECT_EQ(f.payload.size(),
                    original.payload.size() - kTenantExtBytes);
        } else {
          // A lone kFlagDeadline bit reinterprets the payload's first 8
          // bytes as the deadline extension — still a valid frame, but
          // never byte-identical to the original.
          ASSERT_EQ(status, DecodeStatus::Ok);
          EXPECT_EQ(f.payload.size(),
                    original.payload.size() - kDeadlineExtBytes);
          EXPECT_NE(f.deadline_ms, original.deadline_ms);
        }
      } else if (byte < 16) {  // request id: not CRC-covered, decodes Ok
        ASSERT_EQ(status, DecodeStatus::Ok);
        EXPECT_NE(f.request_id, original.request_id);
        EXPECT_EQ(f.payload, original.payload);
      } else if (byte < 20) {  // payload length
        // Shorter: CRC over the wrong span mismatches. Longer: the stream
        // ends mid-payload (or trips the size cap). Never a clean decode.
        if (status == DecodeStatus::Error) {
          EXPECT_TRUE(decoder.error() == WireErrorCode::CrcMismatch ||
                      decoder.error() == WireErrorCode::FrameTooLarge);
        } else {
          ASSERT_EQ(status, DecodeStatus::NeedMore);
          EXPECT_EQ(decoder.finish(), WireErrorCode::TruncatedPayload);
        }
      } else if (byte < 24) {  // CRC field
        ASSERT_EQ(status, DecodeStatus::Error);
        EXPECT_EQ(decoder.error(), WireErrorCode::CrcMismatch);
      } else {  // payload: every flip is caught by the CRC
        ASSERT_EQ(status, DecodeStatus::Error);
        EXPECT_EQ(decoder.error(), WireErrorCode::CrcMismatch);
      }
    }
  }
}

// --- tenant extension -------------------------------------------------------

TEST(WireCodec, TenantExtensionRoundTrips) {
  Frame frame = make_read_request(77, 0x1234);
  attach_tenant(frame, 42, 0xFEEDFACECAFEBEEFULL);
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  EXPECT_EQ(bytes[7] & kFlagTenant, kFlagTenant);

  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame out;
  ASSERT_EQ(decoder.next(out), DecodeStatus::Ok);
  ASSERT_TRUE(out.has_tenant);
  EXPECT_EQ(out.tenant_id, 42u);
  EXPECT_EQ(out.tenant_token, 0xFEEDFACECAFEBEEFULL);
  std::uint64_t addr = 0;
  WireErrorCode err{};
  ASSERT_TRUE(parse_read_request(out, addr, err)) << "ext must be stripped";
  EXPECT_EQ(addr, 0x1234u);
}

TEST(WireCodec, TenantAndDeadlineExtensionsComposeInOrder) {
  Frame frame = make_write_request(9, 5, std::vector<std::uint8_t>(64, 0x3C));
  frame.deadline_ms = 250;
  attach_tenant(frame, 7, 0xA5A5A5A5A5A5A5A5ULL);
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  EXPECT_EQ(bytes[7], kFlagDeadline | kFlagTenant);

  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame out;
  ASSERT_EQ(decoder.next(out), DecodeStatus::Ok);
  EXPECT_EQ(out.deadline_ms, 250u);
  ASSERT_TRUE(out.has_tenant);
  EXPECT_EQ(out.tenant_id, 7u);
  EXPECT_EQ(out.tenant_token, 0xA5A5A5A5A5A5A5A5ULL);
  std::uint64_t addr = 0;
  std::span<const std::uint8_t> data;
  WireErrorCode err{};
  ASSERT_TRUE(parse_write_request(out, addr, data, err));
  EXPECT_EQ(addr, 5u);
  EXPECT_EQ(std::vector<std::uint8_t>(data.begin(), data.end()),
            std::vector<std::uint8_t>(64, 0x3C));
}

// --- one frame format --------------------------------------------------------

// The decoder serves kWireVersion only: every other version byte is refused
// on the first five bytes, before the rest of the header arrives.
TEST(WireCodec, EveryOtherVersionByteIsBadVersion) {
  const std::vector<std::uint8_t> stream = encode_frame(make_ping(1));
  for (unsigned version = 0; version < 256; ++version) {
    if (version == kWireVersion) continue;
    FrameDecoder decoder;
    std::vector<std::uint8_t> prologue(stream.begin(), stream.begin() + 5);
    prologue[4] = static_cast<std::uint8_t>(version);
    decoder.feed(prologue);
    Frame out;
    ASSERT_EQ(decoder.next(out), DecodeStatus::Error) << "version " << version;
    EXPECT_EQ(decoder.error(), WireErrorCode::BadVersion) << "version " << version;
  }
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

// Pinned encodings: any change to the header, the extension order or the
// CRC coverage shows up here as a byte diff.
TEST(WireCodec, EncodingsMatchPinnedBytes) {
  std::vector<std::uint8_t> data(16);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(0x10 + i);

  EXPECT_EQ(hex(encode_frame(make_read_request(0x0102030405060708ULL,
                                               0x1122334455667788ULL))),
            "53505731040200000807060504030201080000002ef1341d8877665544332211");
  EXPECT_EQ(hex(encode_frame(make_write_request(7, 0x40, data))),
            "5350573104030000070000000000000018000000a786019d4000000000000000"
            "101112131415161718191a1b1c1d1e1f");

  Frame deadline = make_read_request(9, 0x40);
  deadline.deadline_ms = 250;
  EXPECT_EQ(hex(encode_frame(deadline)),
            "5350573104020001090000000000000010000000796d0eb2fa00000000000000"
            "4000000000000000");

  Frame tenant = make_read_request(10, 0x40);
  attach_tenant(tenant, 3, 0xA1B2C3D4E5F60718ULL);
  EXPECT_EQ(hex(encode_frame(tenant)),
            "53505731040200020a0000000000000014000000636891bb030000001807f6e5"
            "d4c3b2a14000000000000000");

  Frame both = make_write_request(11, 0x80, data);
  both.deadline_ms = 1000;
  attach_tenant(both, 5, 0x0123456789ABCDEFULL);
  EXPECT_EQ(hex(encode_frame(both)),
            "53505731040300030b000000000000002c00000028930d32e803000000000000"
            "05000000efcdab89674523018000000000000000101112131415161718191a1b"
            "1c1d1e1f");

  EXPECT_EQ(hex(encode_frame(
                make_busy_response(make_read_request(12, 0x40), 25, "queue full"))),
            "5350573104020a000c000000000000001200000086089c6c1900000000000000"
            "71756575652066756c6c");

  const std::uint8_t owner[] = {1, 2, 3, 4, 5};
  EXPECT_EQ(hex(encode_frame(make_moved_response(Opcode::Write, 13, owner))),
            "53505731040309000d0000000000000005000000f4990b470102030405");
}

TEST(WireCodec, TenantFlagWithShortPayloadIsBadPayload) {
  Frame frame = make_ping(3);  // empty payload
  std::vector<std::uint8_t> bytes = encode_frame(frame);
  bytes[7] = kFlagTenant;  // announces 12 ext bytes the payload lacks
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame out;
  ASSERT_EQ(decoder.next(out), DecodeStatus::Error);
  EXPECT_EQ(decoder.error(), WireErrorCode::BadPayload);
}

TEST(WireCodec, FrameOverSizeCapIsTyped) {
  FrameDecoder decoder(/*max_frame_bytes=*/128);
  Frame big = make_ping(1);
  big.payload.assign(1024, 0x5A);
  const std::vector<std::uint8_t> stream = encode_frame(big);
  decoder.feed(stream.data(), stream.size());
  Frame f;
  ASSERT_EQ(decoder.next(f), DecodeStatus::Error);
  EXPECT_EQ(decoder.error(), WireErrorCode::FrameTooLarge);
}

TEST(WireCodec, PoisonedDecoderStaysPoisoned) {
  FrameDecoder decoder;
  const char garbage[] = "XXXXnot a frame";
  decoder.feed(garbage, sizeof garbage);
  Frame f;
  ASSERT_EQ(decoder.next(f), DecodeStatus::Error);
  EXPECT_EQ(decoder.error(), WireErrorCode::BadMagic);

  // A perfectly valid frame fed afterwards must not resurrect the stream.
  const std::vector<std::uint8_t> good = encode_frame(make_ping(9));
  decoder.feed(good.data(), good.size());
  ASSERT_EQ(decoder.next(f), DecodeStatus::Error);
  EXPECT_EQ(decoder.error(), WireErrorCode::BadMagic);
  EXPECT_EQ(decoder.finish(), WireErrorCode::BadMagic);
}

TEST(WireCodec, BackToBackFramesInOneFeed) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, make_read_request(1, 10));
  append_frame(stream, make_scrub_request(2));
  append_frame(stream, make_ping(3));
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  Frame f;
  ASSERT_EQ(decoder.next(f), DecodeStatus::Ok);
  EXPECT_EQ(f.opcode, Opcode::Read);
  EXPECT_EQ(f.request_id, 1u);
  ASSERT_EQ(decoder.next(f), DecodeStatus::Ok);
  EXPECT_EQ(f.opcode, Opcode::Scrub);
  ASSERT_EQ(decoder.next(f), DecodeStatus::Ok);
  EXPECT_EQ(f.opcode, Opcode::Ping);
  EXPECT_EQ(decoder.next(f), DecodeStatus::NeedMore);
  EXPECT_EQ(decoder.finish(), WireErrorCode::None);
}

TEST(WireParsers, TypedBuildersRoundTripThroughParsers) {
  WireErrorCode err = WireErrorCode::None;

  std::uint64_t addr = 0;
  ASSERT_TRUE(parse_read_request(make_read_request(5, 0xDEAD), addr, err));
  EXPECT_EQ(addr, 0xDEADu);

  std::vector<std::uint8_t> data = {1, 2, 3, 4};
  std::span<const std::uint8_t> span;
  const Frame wr = make_write_request(6, 77, data);
  ASSERT_TRUE(parse_write_request(wr, addr, span, err));
  EXPECT_EQ(addr, 77u);
  EXPECT_TRUE(std::equal(span.begin(), span.end(), data.begin(), data.end()));

  obs::MetricsFormat format = obs::MetricsFormat::Prometheus;
  ASSERT_TRUE(parse_metrics_request(
      make_metrics_request(7, obs::MetricsFormat::Json), format, err));
  EXPECT_EQ(format, obs::MetricsFormat::Json);

  std::uint64_t blocks = 0;
  ASSERT_TRUE(parse_scrub_response(make_scrub_response(8, 42), blocks, err));
  EXPECT_EQ(blocks, 42u);
}

TEST(WireParsers, MalformedPayloadsAreTypedNotFatal) {
  WireErrorCode err = WireErrorCode::None;
  std::uint64_t u64 = 0;
  std::span<const std::uint8_t> span;
  obs::MetricsFormat format = obs::MetricsFormat::Prometheus;

  Frame f;
  f.opcode = Opcode::Read;  // READ payload must be exactly 8 bytes
  f.payload = {1, 2, 3};
  EXPECT_FALSE(parse_read_request(f, u64, err));
  EXPECT_EQ(err, WireErrorCode::BadPayload);

  f.opcode = Opcode::Write;  // WRITE payload needs at least the address
  f.payload = {1, 2, 3};
  err = WireErrorCode::None;
  EXPECT_FALSE(parse_write_request(f, u64, span, err));
  EXPECT_EQ(err, WireErrorCode::BadPayload);

  f.opcode = Opcode::Metrics;  // format byte must be 0 or 1
  f.payload = {9};
  err = WireErrorCode::None;
  EXPECT_FALSE(parse_metrics_request(f, format, err));
  EXPECT_EQ(err, WireErrorCode::BadPayload);

  // Empty METRICS request defaults to Prometheus.
  f.payload.clear();
  err = WireErrorCode::None;
  EXPECT_TRUE(parse_metrics_request(f, format, err));
  EXPECT_EQ(format, obs::MetricsFormat::Prometheus);

  f.opcode = Opcode::Scrub;
  f.payload = {0, 0};
  err = WireErrorCode::None;
  EXPECT_FALSE(parse_scrub_response(f, u64, err));
  EXPECT_EQ(err, WireErrorCode::BadPayload);
}

}  // namespace
}  // namespace spe::net
