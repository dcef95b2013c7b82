#pragma once
// NVMM image persistence. The array is non-volatile: its analog state
// survives power-down *and process restart*. These helpers serialise a
// device image (parameters + every stored cell level + encryption flags +
// the crash-consistency intent journal) so an SNVMM can be saved to disk
// and reloaded later — the instant-on property end-to-end, and a
// convenient fixture format for experiments.
//
// Format v2 (little-endian, magic "SPENVMM2"):
//   magic | device_seed | units_per_block | crossbar rows | crossbar cols |
//   fingerprint | block count |
//   per block:   record { address, encrypted flag, wear bits, level count,
//                cell levels } followed by a CRC32 of the record bytes |
//   journal:     entry count, then per entry record { block address, op,
//                epoch, progress, total, pre-image length, pre-image } and
//                its CRC32.
// v2 is the only format: a v1 image ("SPENVMM1", no CRCs, no journal) is
// rejected as bad magic.
//
// The manufactured parameters are re-derived from the device seed, and the
// stored fingerprint is cross-checked on load (a corrupted or mismatched
// image is rejected rather than silently decrypting garbage). Truncated or
// short-read images are rejected with a message naming the field that was
// being read.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/snvmm.hpp"

namespace spe::core {

/// Writes the device image (format v2). Throws std::runtime_error
/// on I/O failure.
void save_image(const Snvmm& nvmm, std::ostream& out);
void save_image_file(const Snvmm& nvmm, const std::string& path);

/// Reads a device image back. Throws std::runtime_error on I/O failure,
/// truncation, bad magic (including a v1 image), fingerprint mismatch, or
/// any per-block / journal CRC mismatch.
[[nodiscard]] Snvmm load_image(std::istream& in);
[[nodiscard]] Snvmm load_image_file(const std::string& path);

/// Tolerant load for recovery paths: structural damage (bad magic,
/// truncation, fingerprint mismatch) still throws, but per-record CRC
/// failures are collected instead. A CRC-failed block is loaded with the
/// bytes as read (the caller is expected to quarantine it); a CRC-failed
/// journal entry is dropped and its block address reported.
struct ImageLoadResult {
  Snvmm nvmm;
  std::vector<std::uint64_t> corrupt_blocks;  ///< addresses failing their CRC
};
[[nodiscard]] ImageLoadResult load_image_checked(std::istream& in);

}  // namespace spe::core
