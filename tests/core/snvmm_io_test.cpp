#include "core/snvmm_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/specu.hpp"

namespace spe::core {
namespace {

class SnvmmIoTest : public ::testing::Test {
protected:
  static constexpr std::uint64_t kMeasurement = 0x1234;

  SnvmmIoTest() { tpm_.provision(nvmm_.device_id(), kMeasurement, SpeKey{7, 8}); }

  std::vector<std::uint8_t> pattern(std::uint8_t seed) {
    std::vector<std::uint8_t> v(64);
    for (unsigned i = 0; i < 64; ++i) v[i] = static_cast<std::uint8_t>(seed ^ (i * 7));
    return v;
  }

  Snvmm nvmm_;
  Tpm tpm_;
};

TEST_F(SnvmmIoTest, EmptyImageRoundTrip) {
  std::stringstream stream;
  save_image(nvmm_, stream);
  const Snvmm loaded = load_image(stream);
  EXPECT_EQ(loaded.block_count(), 0u);
  EXPECT_EQ(loaded.fingerprint(), nvmm_.fingerprint());
  EXPECT_EQ(loaded.device_id(), nvmm_.device_id());
}

TEST_F(SnvmmIoTest, EncryptedContentSurvivesSerialisation) {
  Specu specu(nvmm_, SpeMode::Parallel);
  ASSERT_TRUE(specu.power_on(tpm_, kMeasurement));
  specu.write_block(0x40, pattern(1));
  specu.write_block(0x80, pattern(2));
  specu.power_down();

  std::stringstream stream;
  save_image(nvmm_, stream);
  Snvmm loaded = load_image(stream);
  ASSERT_EQ(loaded.block_count(), 2u);
  // The probe view (ciphertext) is byte-identical.
  EXPECT_EQ(loaded.probe_block(0x40), nvmm_.probe_block(0x40));

  // Instant-on against the reloaded image: the original TPM key decrypts.
  Specu revived(loaded, SpeMode::Parallel);
  ASSERT_TRUE(revived.power_on(tpm_, kMeasurement));
  EXPECT_EQ(revived.read_block(0x40), pattern(1));
  EXPECT_EQ(revived.read_block(0x80), pattern(2));
}

TEST_F(SnvmmIoTest, WearAndFlagsArePreserved) {
  Specu specu(nvmm_, SpeMode::Serial);
  ASSERT_TRUE(specu.power_on(tpm_, kMeasurement));
  specu.write_block(0, pattern(3));
  (void)specu.read_block(0);  // serial: leaves the block decrypted
  const double wear_before = nvmm_.max_wear();
  ASSERT_GT(wear_before, 0.0);

  std::stringstream stream;
  save_image(nvmm_, stream);
  const Snvmm loaded = load_image(stream);
  EXPECT_DOUBLE_EQ(loaded.max_wear(), wear_before);
  EXPECT_FALSE(loaded.find_block(0)->encrypted);  // plaintext flag survives
}

TEST_F(SnvmmIoTest, RejectsBadMagic) {
  std::stringstream stream("not an image at all");
  EXPECT_THROW((void)load_image(stream), std::runtime_error);
}

TEST_F(SnvmmIoTest, RejectsTruncatedImage) {
  Specu specu(nvmm_, SpeMode::Parallel);
  ASSERT_TRUE(specu.power_on(tpm_, kMeasurement));
  specu.write_block(0, pattern(4));
  std::stringstream stream;
  save_image(nvmm_, stream);
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() - 40));
  EXPECT_THROW((void)load_image(truncated), std::runtime_error);
}

TEST_F(SnvmmIoTest, RejectsFingerprintTamper) {
  std::stringstream stream;
  save_image(nvmm_, stream);
  std::string image = stream.str();
  image[40] ^= 0x01;  // flip a bit inside the stored fingerprint field
  std::stringstream tampered(image);
  EXPECT_THROW((void)load_image(tampered), std::runtime_error);
}

TEST_F(SnvmmIoTest, FileRoundTrip) {
  Specu specu(nvmm_, SpeMode::Parallel);
  ASSERT_TRUE(specu.power_on(tpm_, kMeasurement));
  specu.write_block(0x1000, pattern(9));
  const std::string path = ::testing::TempDir() + "/snvmm_image.bin";
  save_image_file(nvmm_, path);
  Snvmm loaded = load_image_file(path);
  Specu revived(loaded, SpeMode::Parallel);
  ASSERT_TRUE(revived.power_on(tpm_, kMeasurement));
  EXPECT_EQ(revived.read_block(0x1000), pattern(9));
  EXPECT_THROW((void)load_image_file(path + ".missing"), std::runtime_error);
}

// --- v2 format: CRCs, journal region, v1 rejection -------------------------

namespace v2 {
std::string u64le(std::uint64_t v) {
  std::string s(8, '\0');
  for (int i = 0; i < 8; ++i) s[i] = static_cast<char>(v >> (8 * i));
  return s;
}
}  // namespace v2

TEST_F(SnvmmIoTest, SavesVersion2Magic) {
  std::stringstream stream;
  save_image(nvmm_, stream);
  EXPECT_EQ(stream.str().substr(0, 8), "SPENVMM2");
}

TEST_F(SnvmmIoTest, JournalSurvivesSerialisation) {
  JournalEntry e;
  e.block_addr = 0x40;
  e.op = JournalOp::Decrypt;
  e.epoch = 0xFEEDBEEF;
  e.progress = 17;
  e.total = 64;
  e.pre_image = {9, 8, 7, 6, 5};
  nvmm_.journal().begin(e);

  std::stringstream stream;
  save_image(nvmm_, stream);
  const Snvmm loaded = load_image(stream);
  ASSERT_EQ(loaded.journal().size(), 1u);
  const JournalEntry* got = loaded.journal().find(0x40);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->op, JournalOp::Decrypt);
  EXPECT_EQ(got->epoch, 0xFEEDBEEFu);
  EXPECT_EQ(got->progress, 17u);
  EXPECT_EQ(got->total, 64u);
  EXPECT_EQ(got->pre_image, e.pre_image);
}

TEST_F(SnvmmIoTest, StrictLoadRejectsBlockCrcCorruption) {
  Specu specu(nvmm_, SpeMode::Parallel);
  ASSERT_TRUE(specu.power_on(tpm_, kMeasurement));
  specu.write_block(0, pattern(6));
  std::stringstream stream;
  save_image(nvmm_, stream);
  std::string image = stream.str();
  image[100] ^= 0x5A;  // a stored cell level inside the first block record
  std::stringstream tampered(image);
  try {
    (void)load_image(tampered);
    FAIL() << "expected CRC rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("block CRC mismatch"), std::string::npos);
  }
}

TEST_F(SnvmmIoTest, CheckedLoadReportsCorruptBlocksInsteadOfThrowing) {
  Specu specu(nvmm_, SpeMode::Parallel);
  ASSERT_TRUE(specu.power_on(tpm_, kMeasurement));
  specu.write_block(0, pattern(6));
  specu.write_block(1, pattern(7));
  std::stringstream stream;
  save_image(nvmm_, stream);
  std::string image = stream.str();
  image[100] ^= 0x5A;  // corrupt block 0's levels, leave block 1 intact
  std::stringstream tampered(image);
  const ImageLoadResult result = load_image_checked(tampered);
  EXPECT_EQ(result.nvmm.block_count(), 2u);
  ASSERT_EQ(result.corrupt_blocks.size(), 1u);
  EXPECT_EQ(result.corrupt_blocks[0], 0u);
}

TEST_F(SnvmmIoTest, TruncationNamesTheFieldBeingRead) {
  std::stringstream stream;
  save_image(nvmm_, stream);
  const std::string full = stream.str();
  // Chop inside the header: units_per_block starts at byte 16.
  std::stringstream chopped(full.substr(0, 20));
  try {
    (void)load_image(chopped);
    FAIL() << "expected truncation rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated while reading header"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SnvmmIoTest, ShortReadInsideBlockRecordIsRejected) {
  Specu specu(nvmm_, SpeMode::Parallel);
  ASSERT_TRUE(specu.power_on(tpm_, kMeasurement));
  specu.write_block(0, pattern(4));
  std::stringstream stream;
  save_image(nvmm_, stream);
  const std::string full = stream.str();
  // Header is 56 bytes; cut mid-way through the block's level bytes.
  std::stringstream chopped(full.substr(0, 150));
  try {
    (void)load_image(chopped);
    FAIL() << "expected truncation rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated while reading block"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SnvmmIoTest, RejectsVersion1Images) {
  // A well-formed v1 image (no CRCs, no journal): header + one zeroed block.
  // v1 is no longer a supported format; both loaders reject its magic.
  const std::size_t levels =
      static_cast<std::size_t>(nvmm_.config().units_per_block) *
      nvmm_.config().base_params.cell_count();
  std::string v1;
  v1 += "SPENVMM1";
  v1 += v2::u64le(nvmm_.config().device_seed);
  v1 += v2::u64le(nvmm_.config().units_per_block);
  v1 += v2::u64le(nvmm_.config().base_params.rows);
  v1 += v2::u64le(nvmm_.config().base_params.cols);
  v1 += v2::u64le(nvmm_.fingerprint());
  v1 += v2::u64le(1);             // block count
  v1 += v2::u64le(5);             // block address
  v1 += v2::u64le(1);             // encrypted flag
  v1 += v2::u64le(0);             // wear bits (0.0)
  v1 += v2::u64le(levels);        // level count
  v1 += std::string(levels, '\0');

  for (const bool checked : {false, true}) {
    std::stringstream in(v1);
    try {
      if (checked)
        (void)load_image_checked(in);
      else
        (void)load_image(in);
      FAIL() << "expected bad-magic rejection (checked=" << checked << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos) << e.what();
    }
  }
}

TEST_F(SnvmmIoTest, CheckedLoadDropsCorruptJournalEntries) {
  JournalEntry e;
  e.block_addr = 0x99;
  e.op = JournalOp::Encrypt;
  e.total = 64;
  nvmm_.journal().begin(e);
  std::stringstream stream;
  save_image(nvmm_, stream);
  std::string image = stream.str();
  // The journal region is at the tail: entry CRC is the last 4 bytes.
  image[image.size() - 1] ^= 0x01;
  std::stringstream tampered(image);
  EXPECT_THROW((void)load_image(tampered), std::runtime_error);  // strict
  std::stringstream tampered2(image);
  const ImageLoadResult result = load_image_checked(tampered2);
  EXPECT_TRUE(result.nvmm.journal().empty());  // entry dropped, not trusted
  ASSERT_EQ(result.corrupt_blocks.size(), 1u);
  EXPECT_EQ(result.corrupt_blocks[0], 0x99u);
}

TEST_F(SnvmmIoTest, SpeWearAccumulatesGently) {
  // Section 5.2 in the data path: 100 parallel-mode reads (decrypt +
  // re-encrypt each) age the block like ~64 writes-equivalents, far below
  // any endurance limit.
  Specu specu(nvmm_, SpeMode::Parallel);
  ASSERT_TRUE(specu.power_on(tpm_, kMeasurement));
  specu.write_block(0, pattern(5));
  const double after_write = nvmm_.max_wear();
  for (int i = 0; i < 100; ++i) (void)specu.read_block(0);
  const double per_read = (nvmm_.max_wear() - after_write) / 100.0;
  // 4 units x 16 pulses x 0.02 for decrypt, same again for re-encrypt.
  EXPECT_NEAR(per_read, 2 * 4 * 16 * 0.02, 1e-9);
  EXPECT_LT(nvmm_.max_wear(), 1e8);  // nowhere near the endurance limit
}

}  // namespace
}  // namespace spe::core
