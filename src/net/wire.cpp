#include "net/wire.hpp"

#include <cstring>
#include <string_view>

#include "util/crc32.hpp"

namespace spe::net {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

bool opcode_valid(std::uint8_t raw) noexcept {
  return raw >= static_cast<std::uint8_t>(Opcode::Ping) &&
         raw <= static_cast<std::uint8_t>(Opcode::RotateKey);
}

const char* to_string(Opcode op) noexcept {
  switch (op) {
    case Opcode::Ping: return "PING";
    case Opcode::Read: return "READ";
    case Opcode::Write: return "WRITE";
    case Opcode::Scrub: return "SCRUB";
    case Opcode::Metrics: return "METRICS";
    case Opcode::Topology: return "TOPOLOGY";
    case Opcode::MigrateRange: return "MIGRATE_RANGE";
    case Opcode::RotateKey: return "ROTATE_KEY";
  }
  return "?";
}

bool status_valid(std::uint8_t raw) noexcept {
  return raw <= static_cast<std::uint8_t>(Status::AccessDenied);
}

const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::Ok: return "ok";
    case Status::BadRequest: return "bad request";
    case Status::Overloaded: return "overloaded";
    case Status::Stopped: return "service stopped";
    case Status::Uncorrectable: return "uncorrectable fault";
    case Status::Quarantined: return "block quarantined";
    case Status::Torn: return "block torn";
    case Status::Timeout: return "request timeout";
    case Status::Internal: return "internal error";
    case Status::Moved: return "moved";
    case Status::Busy: return "busy";
    case Status::QuotaExceeded: return "quota exceeded";
    case Status::AccessDenied: return "access denied";
  }
  return "?";
}

const char* to_string(WireErrorCode code) noexcept {
  switch (code) {
    case WireErrorCode::None: return "none";
    case WireErrorCode::BadMagic: return "bad magic";
    case WireErrorCode::BadVersion: return "unsupported version";
    case WireErrorCode::BadOpcode: return "unknown opcode";
    case WireErrorCode::BadStatus: return "unknown status";
    case WireErrorCode::ReservedNonzero: return "reserved byte nonzero";
    case WireErrorCode::FrameTooLarge: return "frame exceeds size limit";
    case WireErrorCode::CrcMismatch: return "payload CRC mismatch";
    case WireErrorCode::TruncatedPayload: return "truncated frame";
    case WireErrorCode::BadPayload: return "malformed payload";
  }
  return "?";
}

void append_frame_direct(std::vector<std::uint8_t>& out, Opcode opcode,
                         Status status, std::uint64_t request_id,
                         std::span<const std::uint8_t> payload,
                         std::uint64_t deadline_ms, bool has_tenant,
                         std::uint32_t tenant_id, std::uint64_t tenant_token) {
  const bool with_deadline = deadline_ms != 0;
  std::uint8_t ext[kDeadlineExtBytes + kTenantExtBytes];
  std::size_t ext_len = 0;
  if (with_deadline) {
    for (std::size_t i = 0; i < kDeadlineExtBytes; ++i)
      ext[ext_len++] = static_cast<std::uint8_t>(deadline_ms >> (8 * i));
  }
  if (has_tenant) {
    for (std::size_t i = 0; i < 4; ++i)
      ext[ext_len++] = static_cast<std::uint8_t>(tenant_id >> (8 * i));
    for (std::size_t i = 0; i < 8; ++i)
      ext[ext_len++] = static_cast<std::uint8_t>(tenant_token >> (8 * i));
  }
  std::uint8_t flags = 0;
  if (with_deadline) flags |= kFlagDeadline;
  if (has_tenant) flags |= kFlagTenant;
  out.reserve(out.size() + kHeaderBytes + ext_len + payload.size());
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(opcode));
  out.push_back(static_cast<std::uint8_t>(status));
  out.push_back(flags);
  put_u64(out, request_id);
  put_u32(out, static_cast<std::uint32_t>(ext_len + payload.size()));
  std::uint32_t crc = 0;
  if (ext_len > 0) crc = util::crc32(ext, ext_len);
  crc = util::crc32(payload.data(), payload.size(), crc);
  put_u32(out, crc);
  out.insert(out.end(), ext, ext + ext_len);
  out.insert(out.end(), payload.begin(), payload.end());
}

void append_frame(std::vector<std::uint8_t>& out, const Frame& frame) {
  append_frame_direct(out, frame.opcode, frame.status, frame.request_id,
                      frame.payload, frame.deadline_ms, frame.has_tenant,
                      frame.tenant_id, frame.tenant_token);
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  append_frame(out, frame);
  return out;
}

Frame make_ping(std::uint64_t id, std::span<const std::uint8_t> echo) {
  Frame f;
  f.opcode = Opcode::Ping;
  f.request_id = id;
  f.payload.assign(echo.begin(), echo.end());
  return f;
}

Frame make_read_request(std::uint64_t id, std::uint64_t block_addr) {
  Frame f;
  f.opcode = Opcode::Read;
  f.request_id = id;
  put_u64(f.payload, block_addr);
  return f;
}

Frame make_write_request(std::uint64_t id, std::uint64_t block_addr,
                         std::span<const std::uint8_t> data) {
  Frame f;
  f.opcode = Opcode::Write;
  f.request_id = id;
  f.payload.reserve(8 + data.size());
  put_u64(f.payload, block_addr);
  f.payload.insert(f.payload.end(), data.begin(), data.end());
  return f;
}

Frame make_scrub_request(std::uint64_t id) {
  Frame f;
  f.opcode = Opcode::Scrub;
  f.request_id = id;
  return f;
}

Frame make_scrub_response(std::uint64_t id, std::uint64_t blocks) {
  Frame f;
  f.opcode = Opcode::Scrub;
  f.request_id = id;
  put_u64(f.payload, blocks);
  return f;
}

Frame make_metrics_request(std::uint64_t id, obs::MetricsFormat format) {
  Frame f;
  f.opcode = Opcode::Metrics;
  f.request_id = id;
  f.payload.push_back(format == obs::MetricsFormat::Json ? 1 : 0);
  return f;
}

Frame make_topology_request(std::uint64_t id, std::span<const std::uint8_t> topology) {
  Frame f;
  f.opcode = Opcode::Topology;
  f.request_id = id;
  f.payload.assign(topology.begin(), topology.end());
  return f;
}

Frame make_topology_response(std::uint64_t id, std::span<const std::uint8_t> topology) {
  Frame f;
  f.opcode = Opcode::Topology;
  f.request_id = id;
  f.payload.assign(topology.begin(), topology.end());
  return f;
}

Frame make_migrate_request(std::uint64_t id, std::span<const std::uint8_t> spec) {
  Frame f;
  f.opcode = Opcode::MigrateRange;
  f.request_id = id;
  f.payload.assign(spec.begin(), spec.end());
  return f;
}

Frame make_migrate_response(std::uint64_t id, std::uint64_t migrated,
                            std::uint64_t skipped, std::uint64_t failed) {
  Frame f;
  f.opcode = Opcode::MigrateRange;
  f.request_id = id;
  put_u64(f.payload, migrated);
  put_u64(f.payload, skipped);
  put_u64(f.payload, failed);
  return f;
}

Frame make_moved_response(Opcode op, std::uint64_t id,
                          std::span<const std::uint8_t> owner) {
  Frame f;
  f.opcode = op;
  f.status = Status::Moved;
  f.request_id = id;
  f.payload.assign(owner.begin(), owner.end());
  return f;
}

Frame make_error_response(Opcode op, Status status, std::uint64_t id,
                          std::string_view reason) {
  Frame f;
  f.opcode = op;
  f.status = status;
  f.request_id = id;
  f.payload.assign(reason.begin(), reason.end());
  return f;
}

Frame make_error_response(const Frame& request, Status status, std::string_view reason) {
  return make_error_response(request.opcode, status, request.request_id, reason);
}

Frame make_busy_response(const Frame& request, std::uint64_t retry_after_ms,
                         std::string_view reason) {
  Frame f;
  f.opcode = request.opcode;
  f.status = Status::Busy;
  f.request_id = request.request_id;
  f.payload.reserve(8 + reason.size());
  put_u64(f.payload, retry_after_ms);
  f.payload.insert(f.payload.end(), reason.begin(), reason.end());
  return f;
}

Frame make_rotate_request(std::uint64_t id, std::uint32_t tenant) {
  Frame f;
  f.opcode = Opcode::RotateKey;
  f.request_id = id;
  put_u32(f.payload, tenant);
  return f;
}

Frame make_rotate_response(std::uint64_t id, std::uint64_t epoch,
                           std::uint64_t scheduled) {
  Frame f;
  f.opcode = Opcode::RotateKey;
  f.request_id = id;
  put_u64(f.payload, epoch);
  put_u64(f.payload, scheduled);
  return f;
}

bool parse_read_request(const Frame& frame, std::uint64_t& block_addr,
                        WireErrorCode& error) noexcept {
  if (frame.payload.size() != 8) {
    error = WireErrorCode::BadPayload;
    return false;
  }
  block_addr = get_u64(frame.payload.data());
  return true;
}

bool parse_write_request(const Frame& frame, std::uint64_t& block_addr,
                         std::span<const std::uint8_t>& data,
                         WireErrorCode& error) noexcept {
  if (frame.payload.size() < 8) {
    error = WireErrorCode::BadPayload;
    return false;
  }
  block_addr = get_u64(frame.payload.data());
  data = std::span<const std::uint8_t>(frame.payload).subspan(8);
  return true;
}

bool parse_metrics_request(const Frame& frame, obs::MetricsFormat& format,
                           WireErrorCode& error) noexcept {
  if (frame.payload.empty()) {
    format = obs::MetricsFormat::Prometheus;
    return true;
  }
  if (frame.payload.size() != 1 || frame.payload[0] > 1) {
    error = WireErrorCode::BadPayload;
    return false;
  }
  format = frame.payload[0] == 1 ? obs::MetricsFormat::Json
                                 : obs::MetricsFormat::Prometheus;
  return true;
}

bool parse_scrub_response(const Frame& frame, std::uint64_t& blocks,
                          WireErrorCode& error) noexcept {
  if (frame.payload.size() != 8) {
    error = WireErrorCode::BadPayload;
    return false;
  }
  blocks = get_u64(frame.payload.data());
  return true;
}

bool parse_migrate_response(const Frame& frame, std::uint64_t& migrated,
                            std::uint64_t& skipped, std::uint64_t& failed,
                            WireErrorCode& error) noexcept {
  if (frame.payload.size() != 24) {
    error = WireErrorCode::BadPayload;
    return false;
  }
  migrated = get_u64(frame.payload.data());
  skipped = get_u64(frame.payload.data() + 8);
  failed = get_u64(frame.payload.data() + 16);
  return true;
}

bool parse_busy_response(const Frame& frame, std::uint64_t& retry_after_ms,
                         WireErrorCode& error) noexcept {
  if (frame.status != Status::Busy || frame.payload.size() < 8) {
    error = WireErrorCode::BadPayload;
    return false;
  }
  retry_after_ms = get_u64(frame.payload.data());
  return true;
}

bool parse_rotate_request(const Frame& frame, std::uint32_t& tenant,
                          WireErrorCode& error) noexcept {
  if (frame.payload.size() != 4) {
    error = WireErrorCode::BadPayload;
    return false;
  }
  tenant = get_u32(frame.payload.data());
  return true;
}

bool parse_rotate_response(const Frame& frame, std::uint64_t& epoch,
                           std::uint64_t& scheduled,
                           WireErrorCode& error) noexcept {
  if (frame.payload.size() != 16) {
    error = WireErrorCode::BadPayload;
    return false;
  }
  epoch = get_u64(frame.payload.data());
  scheduled = get_u64(frame.payload.data() + 8);
  return true;
}

void FrameDecoder::feed(const void* data, std::size_t len) {
  if (error_ != WireErrorCode::None || len == 0) return;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (off_ > 0 && off_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), bytes, bytes + len);
}

DecodeStatus FrameDecoder::fail(WireErrorCode code) noexcept {
  error_ = code;
  return DecodeStatus::Error;
}

DecodeStatus FrameDecoder::next(Frame& out) {
  if (error_ != WireErrorCode::None) return DecodeStatus::Error;
  const std::size_t avail = buf_.size() - off_;
  // Fail fast on a bad prologue: the magic and version are checkable before
  // the full header arrives, so a client speaking the wrong protocol is cut
  // off on its first bytes.
  const std::uint8_t* p = buf_.data() + off_;
  for (std::size_t i = 0; i < avail && i < 4; ++i)
    if (p[i] != kMagic[i]) return fail(WireErrorCode::BadMagic);
  if (avail >= 5 && p[4] != kWireVersion) return fail(WireErrorCode::BadVersion);
  if (avail < kHeaderBytes) return DecodeStatus::NeedMore;

  if (!opcode_valid(p[5])) return fail(WireErrorCode::BadOpcode);
  if (!status_valid(p[6])) return fail(WireErrorCode::BadStatus);
  const std::uint8_t flags = p[7];
  // Unknown flag bits fail loudly instead of being silently misparsed.
  if ((flags & ~kKnownFlags) != 0) return fail(WireErrorCode::ReservedNonzero);
  const std::uint64_t request_id = get_u64(p + 8);
  const std::uint32_t payload_len = get_u32(p + 16);
  const std::uint32_t crc = get_u32(p + 20);
  if (payload_len > max_frame_bytes_) return fail(WireErrorCode::FrameTooLarge);
  const bool with_deadline = (flags & kFlagDeadline) != 0;
  const bool with_tenant = (flags & kFlagTenant) != 0;
  const std::size_t ext_len = (with_deadline ? kDeadlineExtBytes : 0) +
                              (with_tenant ? kTenantExtBytes : 0);
  if (payload_len < ext_len) return fail(WireErrorCode::BadPayload);
  if (avail < kHeaderBytes + payload_len) return DecodeStatus::NeedMore;

  const std::uint8_t* payload = p + kHeaderBytes;
  if (util::crc32(payload, payload_len) != crc) return fail(WireErrorCode::CrcMismatch);

  out.opcode = static_cast<Opcode>(p[5]);
  out.status = static_cast<Status>(p[6]);
  out.request_id = request_id;
  out.deadline_ms = with_deadline ? get_u64(payload) : 0;
  if (with_deadline) payload += kDeadlineExtBytes;
  out.has_tenant = with_tenant;
  out.tenant_id = 0;
  out.tenant_token = 0;
  if (with_tenant) {
    out.tenant_id = get_u32(payload);
    out.tenant_token = get_u64(payload + 4);
    payload += kTenantExtBytes;
  }
  out.payload.assign(payload, payload + (payload_len - ext_len));
  off_ += kHeaderBytes + payload_len;
  if (off_ == buf_.size()) {
    buf_.clear();
    off_ = 0;
  }
  return DecodeStatus::Ok;
}

WireErrorCode FrameDecoder::finish() const noexcept {
  if (error_ != WireErrorCode::None) return error_;
  return buffered() == 0 ? WireErrorCode::None : WireErrorCode::TruncatedPayload;
}

}  // namespace spe::net
