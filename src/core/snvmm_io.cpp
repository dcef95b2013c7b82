#include "core/snvmm_io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/crc32.hpp"

namespace spe::core {

namespace {

constexpr char kMagicV2[8] = {'S', 'P', 'E', 'N', 'V', 'M', 'M', '2'};

void append_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void write_u64(std::ostream& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out.write(buf, 8);
}

void write_u32(std::ostream& out, std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out.write(buf, 4);
}

/// Serialises one record into a scratch buffer, writes it, then writes the
/// CRC32 of the buffer — so the CRC covers exactly the on-disk record bytes.
void write_record(std::ostream& out, const std::vector<std::uint8_t>& record) {
  out.write(reinterpret_cast<const char*>(record.data()),
            static_cast<std::streamsize>(record.size()));
  write_u32(out, util::crc32(record.data(), record.size()));
}

/// Byte reader with a per-record CRC accumulator. Every short read names
/// the field it was fetching, so a chopped image fails loudly and
/// specifically instead of with a generic "truncated".
class Reader {
public:
  explicit Reader(std::istream& in) : in_(in) {}

  void bytes(void* dst, std::size_t n, const char* what) {
    in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in_.gcount()) != n || !in_)
      throw std::runtime_error(std::string("snvmm image: truncated while reading ") + what);
    if (crc_active_) crc_ = util::crc32(dst, n, crc_);
  }

  std::uint64_t u64(const char* what) {
    std::uint8_t buf[8];
    bytes(buf, sizeof(buf), what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{buf[i]} << (8 * i);
    return v;
  }

  std::uint32_t u32(const char* what) {
    std::uint8_t buf[4];
    bytes(buf, sizeof(buf), what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{buf[i]} << (8 * i);
    return v;
  }

  void begin_crc() {
    crc_active_ = true;
    crc_ = 0;
  }
  /// Stops accumulating and returns the CRC of everything read since
  /// begin_crc() — compare against the stored CRC read *after* this call.
  std::uint32_t end_crc() {
    crc_active_ = false;
    return crc_;
  }

private:
  std::istream& in_;
  bool crc_active_ = false;
  std::uint32_t crc_ = 0;
};

struct Header {
  SnvmmConfig config;
  std::uint64_t fingerprint = 0;
  std::uint64_t block_count = 0;
};

Header read_header(Reader& r) {
  Header h;
  h.config.device_seed = r.u64("header device_seed");
  h.config.units_per_block = static_cast<unsigned>(r.u64("header units_per_block"));
  h.config.base_params.rows = static_cast<unsigned>(r.u64("header crossbar rows"));
  h.config.base_params.cols = static_cast<unsigned>(r.u64("header crossbar cols"));
  h.fingerprint = r.u64("header fingerprint");
  h.block_count = r.u64("header block count");
  return h;
}

ImageLoadResult load_image_impl(std::istream& in, bool strict) {
  char magic[sizeof(kMagicV2)];
  in.read(magic, sizeof(magic));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(magic) || !in)
    throw std::runtime_error("snvmm image: truncated while reading magic");
  if (std::memcmp(magic, kMagicV2, sizeof(magic)) != 0)
    throw std::runtime_error("snvmm image: bad magic");

  Reader r(in);
  const Header h = read_header(r);

  Snvmm nvmm(h.config);
  if (nvmm.fingerprint() != h.fingerprint)
    throw std::runtime_error(
        "snvmm image: fingerprint mismatch (corrupted image or different "
        "library parameterisation)");

  ImageLoadResult result{std::move(nvmm), {}};
  const std::size_t expected_levels =
      static_cast<std::size_t>(h.config.units_per_block) *
      h.config.base_params.cell_count();

  for (std::uint64_t b = 0; b < h.block_count; ++b) {
    r.begin_crc();
    const std::uint64_t addr = r.u64("block address");
    const bool encrypted = r.u64("block encrypted flag") != 0;
    const std::uint64_t wear_bits = r.u64("block wear");
    const std::uint64_t levels = r.u64("block level count");
    if (levels != expected_levels)
      throw std::runtime_error("snvmm image: block size mismatch");
    auto& block = result.nvmm.block(addr);
    r.bytes(block.levels.data(), static_cast<std::size_t>(levels), "block levels");
    block.encrypted = encrypted;
    std::memcpy(&block.wear, &wear_bits, sizeof(block.wear));
    const std::uint32_t actual = r.end_crc();
    const std::uint32_t stored = r.u32("block CRC");
    if (actual != stored) {
      if (strict)
        throw std::runtime_error("snvmm image: block CRC mismatch");
      result.corrupt_blocks.push_back(addr);
    }
  }

  const std::uint64_t entries = r.u64("journal entry count");
  for (std::uint64_t e = 0; e < entries; ++e) {
    r.begin_crc();
    JournalEntry entry;
    entry.block_addr = r.u64("journal entry address");
    entry.op = static_cast<JournalOp>(r.u64("journal entry op"));
    entry.epoch = r.u64("journal entry epoch");
    entry.progress = static_cast<std::uint32_t>(r.u64("journal entry progress"));
    entry.total = static_cast<std::uint32_t>(r.u64("journal entry total"));
    const std::uint64_t pre = r.u64("journal entry pre-image length");
    entry.pre_image.resize(static_cast<std::size_t>(pre));
    if (pre) r.bytes(entry.pre_image.data(), entry.pre_image.size(), "journal pre-image");
    const std::uint32_t actual = r.end_crc();
    const std::uint32_t stored = r.u32("journal entry CRC");
    if (actual != stored) {
      if (strict)
        throw std::runtime_error("snvmm image: journal entry CRC mismatch");
      // The entry is untrustworthy; drop it and flag the (best-effort)
      // address so the runtime can quarantine the block it points at.
      result.corrupt_blocks.push_back(entry.block_addr);
      continue;
    }
    result.nvmm.journal().begin(std::move(entry));
  }
  return result;
}

}  // namespace

void save_image(const Snvmm& nvmm, std::ostream& out) {
  out.write(kMagicV2, sizeof(kMagicV2));
  write_u64(out, nvmm.config().device_seed);
  write_u64(out, nvmm.config().units_per_block);
  write_u64(out, nvmm.config().base_params.rows);
  write_u64(out, nvmm.config().base_params.cols);
  write_u64(out, nvmm.fingerprint());
  write_u64(out, nvmm.block_count());

  std::vector<std::uint8_t> record;
  for (const auto& [addr, block] : nvmm.blocks()) {
    record.clear();
    append_u64(record, addr);
    append_u64(record, block.encrypted ? 1 : 0);
    std::uint64_t wear_bits;
    static_assert(sizeof(wear_bits) == sizeof(block.wear));
    std::memcpy(&wear_bits, &block.wear, sizeof(wear_bits));
    append_u64(record, wear_bits);
    append_u64(record, block.levels.size());
    record.insert(record.end(), block.levels.begin(), block.levels.end());
    write_record(out, record);
  }

  const auto& journal = nvmm.journal().entries();
  write_u64(out, journal.size());
  for (const auto& [addr, entry] : journal) {
    record.clear();
    append_u64(record, entry.block_addr);
    append_u64(record, static_cast<std::uint64_t>(entry.op));
    append_u64(record, entry.epoch);
    append_u64(record, entry.progress);
    append_u64(record, entry.total);
    append_u64(record, entry.pre_image.size());
    record.insert(record.end(), entry.pre_image.begin(), entry.pre_image.end());
    write_record(out, record);
  }
  if (!out) throw std::runtime_error("snvmm image: write failure");
}

void save_image_file(const Snvmm& nvmm, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("snvmm image: cannot open " + path);
  save_image(nvmm, out);
}

Snvmm load_image(std::istream& in) {
  return std::move(load_image_impl(in, /*strict=*/true).nvmm);
}

Snvmm load_image_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("snvmm image: cannot open " + path);
  return load_image(in);
}

ImageLoadResult load_image_checked(std::istream& in) {
  return load_image_impl(in, /*strict=*/false);
}

}  // namespace spe::core
