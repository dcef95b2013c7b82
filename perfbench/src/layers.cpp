#include "layers.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "net/wire.hpp"
#include "report.hpp"

namespace perfbench {

namespace {

using spe::obs::TraceEvent;

/// Instants carry one timestamp and never nest; everything else is a span.
bool is_instant(std::string_view name) {
  return name == "svc.submit" || name == "net.accept" || name == "net.request" ||
         name == "ecc.retry" || name.starts_with("journal.");
}

bool is_shard_op(std::string_view name) {
  return name == "shard.read" || name == "shard.write";
}

}  // namespace

TraceFigures analyse_trace(const std::vector<TraceEvent>& events, std::uint64_t from,
                           std::uint64_t to, const std::vector<Submission>& submitted) {
  TraceFigures f;
  std::unordered_map<std::uint32_t, std::uint64_t> per_thread;
  std::vector<std::size_t> spans;
  for (std::size_t i = 0; i < events.size(); ++i) {
    f.max_thread_events = std::max(f.max_thread_events, ++per_thread[events[i].tid]);
    if (!is_instant(events[i].name)) spans.push_back(i);
  }

  // Rebuild each thread's span tree: sorted by start (enclosing span first),
  // a span's parent is the innermost open span that has not ended yet. A
  // span that outlives its parent or whose recorded depth disagrees with
  // the rebuilt one is bad.
  std::stable_sort(spans.begin(), spans.end(), [&](std::size_t a, std::size_t b) {
    const TraceEvent& x = events[a];
    const TraceEvent& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start != y.start) return x.start < y.start;
    if (x.end != y.end) return x.end > y.end;
    return x.depth < y.depth;
  });
  std::vector<std::ptrdiff_t> parent(events.size(), -1);
  std::vector<std::uint64_t> child_ns(events.size(), 0);
  std::vector<std::size_t> open;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const std::size_t idx = spans[k];
    const TraceEvent& e = events[idx];
    if (k == 0 || events[spans[k - 1]].tid != e.tid) open.clear();
    if (e.end < e.start) {
      ++f.bad_spans;
      continue;
    }
    while (!open.empty() && events[open.back()].end <= e.start) open.pop_back();
    if (!open.empty()) {
      if (e.end > events[open.back()].end) ++f.bad_spans;
      parent[idx] = static_cast<std::ptrdiff_t>(open.back());
      child_ns[open.back()] += e.end - e.start;
    }
    if (e.depth != open.size()) ++f.bad_spans;
    open.push_back(idx);
  }

  const auto shard_ancestor = [&](std::size_t idx) -> std::ptrdiff_t {
    for (std::ptrdiff_t p = parent[idx]; p >= 0; p = parent[static_cast<std::size_t>(p)])
      if (is_shard_op(events[static_cast<std::size_t>(p)].name)) return p;
    return -1;
  };
  for (const std::size_t idx : spans) {
    const TraceEvent& e = events[idx];
    if (e.start < from || e.start >= to || e.end < e.start) continue;
    const std::string_view name = e.name;
    const std::uint64_t dur = e.end - e.start;
    if (is_shard_op(name)) {
      f.exec_ns.push_back(dur);
      f.exec_self_ns += dur - std::min(dur, child_ns[idx]);
      f.foreground_busy_ns += dur;
      if (name == "shard.read") ++f.shard_reads;
    } else if (name == "shard.scavenge") {
      f.scavenge_busy_ns += dur;
    } else if (name == "shard.scrub") {
      f.scrub_busy_ns += dur;
    } else if (name == "net.flush") {
      f.flush_busy_ns += dur;
      ++f.flushes;
    } else if (name == "ecc.verify") {
      f.ecc_ns.push_back(dur);
      f.ecc_busy_ns += dur;
      if (shard_ancestor(idx) >= 0) {
        ++f.ecc_foreground;
        f.ecc_foreground_ns += dur;
      }
    } else if (name.starts_with("specu.")) {
      if (name == "specu.encrypt") f.encrypt_ns.push_back(dur);
      if (name == "specu.decrypt") {
        f.decrypt_ns.push_back(dur);
        const std::ptrdiff_t op = shard_ancestor(idx);
        if (op >= 0 && std::string_view(events[static_cast<std::size_t>(op)].name) ==
                           "shard.read")
          ++f.decrypts_in_reads;
      }
      const std::ptrdiff_t p = parent[idx];
      if (p < 0 ||
          !std::string_view(events[static_cast<std::size_t>(p)].name).starts_with("specu."))
        f.cipher_busy_ns += dur;
    }
  }

  // Queue wait: svc.submit (stamped by the service as it queues the op) to
  // the start of the op's shard span. Per address the service runs ops in
  // submission order, so the k-th read submitted matches the k-th
  // shard.read span. A write matches the first later shard.write span,
  // except that a write queued behind another write to the same block
  // (coalescing) shares that write's span when the span had not started.
  std::unordered_map<std::uint64_t, std::vector<bool>> kinds;
  for (const Submission& s : submitted) kinds[s.addr].push_back(s.write);
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> submits, reads, writes;
  for (const TraceEvent& e : events) {
    if (e.start < from) continue;
    const std::string_view name = e.name;
    if (name == "svc.submit" && e.start < to) submits[e.a0].push_back(e.start);
    else if (name == "shard.read") reads[e.a0].push_back(e.start);
    else if (name == "shard.write") writes[e.a0].push_back(e.start);
  }
  for (auto& [addr, ks] : kinds) {
    std::vector<std::uint64_t>& ts = submits[addr];
    std::vector<std::uint64_t>& rs = reads[addr];
    std::vector<std::uint64_t>& ws = writes[addr];
    std::sort(ts.begin(), ts.end());
    std::sort(rs.begin(), rs.end());
    std::sort(ws.begin(), ws.end());
    if (ts.size() != ks.size()) {
      f.unmatched_submits += ks.size();
      continue;
    }
    std::size_t r = 0;
    std::ptrdiff_t w = -1;
    bool prev_write = false;
    for (std::size_t k = 0; k < ks.size(); ++k) {
      const std::uint64_t t = ts[k];
      if (!ks[k]) {
        if (r < rs.size() && rs[r] >= t) f.queue_wait_ns.push_back(rs[r] - t);
        else ++f.unmatched_submits;
        ++r;
        prev_write = false;
        continue;
      }
      if (prev_write && w >= 0 && ws[static_cast<std::size_t>(w)] >= t) {
        f.queue_wait_ns.push_back(ws[static_cast<std::size_t>(w)] - t);
      } else {
        auto q = static_cast<std::size_t>(w + 1);
        while (q < ws.size() && ws[q] < t) ++q;
        if (q < ws.size()) {
          f.queue_wait_ns.push_back(ws[q] - t);
          w = static_cast<std::ptrdiff_t>(q);
        } else {
          ++f.unmatched_submits;
        }
      }
      prev_write = true;
    }
  }
  return f;
}

double codec_ns_per_frame(const WorkloadSpec& spec, std::uint64_t seed) {
  constexpr unsigned kOps = 20000;
  constexpr unsigned kPasses = 5;
  OpStream ops(spec, seed, 0);
  const std::vector<std::uint8_t> block(64, 0x5A);
  std::vector<spe::net::Frame> frames;
  frames.reserve(2 * kOps);
  for (unsigned i = 0; i < kOps; ++i) {
    const Op op = ops.next();
    const std::uint64_t id = i + 1;
    spe::net::Frame request = op.write
                                  ? spe::net::make_write_request(id, op.index, block)
                                  : spe::net::make_read_request(id, op.index);
    if (spec.wire) spe::net::attach_tenant(request, 1, 0x70C3E17ull ^ id);
    spe::net::Frame response;
    response.opcode = request.opcode;
    response.request_id = id;
    if (!op.write) response.payload = block;
    frames.push_back(std::move(request));
    frames.push_back(std::move(response));
  }
  std::vector<double> per_frame;
  for (unsigned pass = 0; pass < kPasses; ++pass) {
    spe::net::FrameDecoder decoder;
    spe::net::Frame decoded;
    const auto start = Clock::now();
    for (const spe::net::Frame& frame : frames) {
      decoder.feed(spe::net::encode_frame(frame));
      if (decoder.next(decoded) != spe::net::DecodeStatus::Ok)
        throw std::runtime_error("codec: an encoded frame failed to decode");
    }
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    per_frame.push_back(ns / static_cast<double>(frames.size()));
  }
  return median(per_frame);
}

}  // namespace perfbench
