#include "workload.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace perfbench {

namespace {

const std::vector<WorkloadSpec>& all_workloads() {
  using spe::core::SpeMode;
  static const std::vector<WorkloadSpec> specs = {
      {.name = "parallel-cold", .wire = false, .mode = SpeMode::Parallel,
       .background = false, .blocks = 16384, .zipf = 0.0, .write_pct = 50,
       .window = 32, .streams = 1},
      {.name = "serial-hot", .wire = false, .mode = SpeMode::Serial,
       .background = true, .blocks = 512, .zipf = 0.99, .write_pct = 10,
       .window = 32, .streams = 1},
      {.name = "wire-tenants", .wire = true, .mode = SpeMode::Serial,
       .background = true, .blocks = 2048, .zipf = 0.0, .write_pct = 50,
       .window = 16, .streams = 2},
  };
  return specs;
}

// Wire streams are tenants 1..n, tenant t owning [t << 20, (t << 20) + blocks).
spe::tenant::TenantId tenant_of(unsigned stream) { return stream + 1; }
std::uint64_t stream_base(const WorkloadSpec& spec, unsigned stream) {
  return spec.wire ? std::uint64_t{tenant_of(stream)} << 20 : 0;
}
std::uint64_t token_secret(spe::tenant::TenantId id) { return 0x7E4A47000ull + id; }

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

double xbar_solves() {
  return static_cast<double>(spe::obs::MetricsRegistry::global()
                                 .counter("spe_xbar_solves_total",
                                          "dense nodal crossbar DC solves")
                                 .value());
}

template <typename T>
bool is_ready(const std::future<T>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

std::atomic<std::uint64_t> next_device_seed{1};

/// Writes version 1 of every shadow block, 32 requests in flight at a time.
void preload(Deployment& dep) {
  constexpr unsigned kChunk = 32;
  for (const Shadow& shadow : dep.shadows) {
    for (unsigned first = 0; first < shadow.blocks(); first += kChunk) {
      const unsigned n = std::min(kChunk, shadow.blocks() - first);
      std::vector<std::uint64_t> addrs;
      std::vector<std::uint8_t> data;
      for (unsigned i = first; i < first + n; ++i) {
        addrs.push_back(shadow.addr(i));
        const auto image = shadow.image(i, 1);
        data.insert(data.end(), image.begin(), image.end());
      }
      for (auto& done : dep.service->submit_write_batch(addrs, data)) done.get();
    }
  }
}

/// Polls MemoryService::encrypted_fraction() at a fixed period and keeps the
/// running mean, so the figure is a time average over the phase.
class FractionSampler {
public:
  FractionSampler(const spe::runtime::MemoryService& service,
                  std::chrono::milliseconds period)
      : thread_([this, &service, period] {
          auto tick = Clock::now();
          std::unique_lock lock(mutex_);
          while (!stopping_) {
            lock.unlock();
            const double f = service.encrypted_fraction();
            lock.lock();
            sum_ += f;
            ++samples_;
            tick += period;
            cv_.wait_until(lock, tick, [this] { return stopping_; });
          }
        }) {}
  ~FractionSampler() { stop(); }

  FractionSampler(const FractionSampler&) = delete;
  FractionSampler& operator=(const FractionSampler&) = delete;

  /// Stops sampling and returns the mean of the samples taken.
  double stop() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return samples_ == 0 ? 1.0 : sum_ / static_cast<double>(samples_);
  }

private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  double sum_ = 0.0;
  std::uint64_t samples_ = 0;
  std::thread thread_;
};

void note_failure(PhaseResult& out, const std::string& what) {
  ++out.failed;
  if (out.first_error.empty()) out.first_error = what;
}

/// The in-process load thread keeps `window` ops outstanding (a
/// core's MSHR window). It sleeps on the oldest outstanding future for at
/// most kPollPeriod, then collects every future that is ready, so each
/// latency is stamped within a poll period of its completion without the
/// caller spinning on a core the workers need.
void drive_local(Deployment& dep, std::uint64_t seed, Clock::time_point start,
                 Clock::time_point deadline, PhaseResult& out, std::vector<Submission>* log) {
  constexpr std::chrono::microseconds kPollPeriod{20};
  struct Slot {
    bool busy = false;
    bool write = false;
    unsigned index = 0;
    std::uint32_t version = 0;
    Clock::time_point sent;
    std::future<std::vector<std::uint8_t>> read;
    std::future<void> written;
  };
  spe::runtime::MemoryService& service = *dep.service;
  Shadow& shadow = dep.shadows[0];
  OpStream ops(dep.spec, seed, 0);
  std::vector<Slot> slots(dep.spec.window);
  unsigned busy = 0;

  const auto submit_op = [&](Slot& slot) {
    const Op op = ops.next();
    if (log) log->push_back({op.write, shadow.addr(op.index)});
    slot.write = op.write;
    slot.index = op.index;
    const std::uint64_t addr = shadow.addr(op.index);
    try {
      if (op.write) {
        slot.version = shadow.begin_write(op.index);
        const auto data = shadow.image(op.index, slot.version);
        slot.sent = Clock::now();
        slot.written = service.submit_write(addr, data);
      } else {
        slot.version = shadow.current(op.index);
        slot.sent = Clock::now();
        slot.read = service.submit_read(addr);
      }
      slot.busy = true;
      ++busy;
    } catch (const std::exception& e) {
      note_failure(out, e.what());
    }
  };
  const auto complete = [&](Slot& slot, Clock::time_point now) {
    slot.busy = false;
    --busy;
    try {
      if (slot.write) {
        slot.written.get();
        out.write_samples.push_back({ns_between(start, now), ns_between(slot.sent, now)});
        ++out.writes;
      } else {
        const std::vector<std::uint8_t> data = slot.read.get();
        out.read_samples.push_back({ns_between(start, now), ns_between(slot.sent, now)});
        ++out.reads;
        if (!shadow.matches(slot.index, slot.version, data)) ++out.mismatches;
      }
    } catch (const std::exception& e) {
      note_failure(out, e.what());
    }
  };

  // Timed waits wake within ~1 us of the deadline instead of the default
  // 50 us timer slack.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  for (;;) {
    const bool sending = Clock::now() < deadline;
    if (sending)
      for (Slot& slot : slots)
        if (!slot.busy) submit_op(slot);
    if (busy == 0) {
      if (!sending) break;
      continue;
    }
    Slot* oldest = nullptr;
    for (Slot& slot : slots)
      if (slot.busy && (oldest == nullptr || slot.sent < oldest->sent)) oldest = &slot;
    if (oldest->write) oldest->written.wait_for(kPollPeriod);
    else oldest->read.wait_for(kPollPeriod);
    for (Slot& slot : slots)
      if (slot.busy && (slot.write ? is_ready(slot.written) : is_ready(slot.read)))
        complete(slot, Clock::now());
  }
}

/// One pipelined tenant connection keeping `window` requests outstanding.
void drive_wire(Deployment& dep, unsigned stream, std::uint64_t seed,
                Clock::time_point start, Clock::time_point deadline, PhaseResult& out,
                std::vector<Submission>* log) {
  struct Inflight {
    bool write = false;
    unsigned index = 0;
    std::uint32_t version = 0;
    Clock::time_point sent;
  };
  spe::net::Client& client = *dep.clients[stream];
  Shadow& shadow = dep.shadows[stream];
  OpStream ops(dep.spec, seed, stream);
  std::unordered_map<std::uint64_t, Inflight> outstanding;
  try {
    for (;;) {
      const bool sending = Clock::now() < deadline;
      if (!sending && outstanding.empty()) break;
      if (sending && outstanding.size() < dep.spec.window) {
        const Op op = ops.next();
        if (log) log->push_back({op.write, shadow.addr(op.index)});
        Inflight inflight;
        inflight.write = op.write;
        inflight.index = op.index;
        std::uint64_t id = 0;
        if (op.write) {
          inflight.version = shadow.begin_write(op.index);
          const auto data = shadow.image(op.index, inflight.version);
          inflight.sent = Clock::now();
          id = client.send_write(shadow.addr(op.index), data);
        } else {
          inflight.version = shadow.current(op.index);
          inflight.sent = Clock::now();
          id = client.send_read(shadow.addr(op.index));
        }
        outstanding.emplace(id, inflight);
        continue;
      }
      const spe::net::Frame response = client.recv_response();
      const auto now = Clock::now();
      const auto it = outstanding.find(response.request_id);
      if (it == outstanding.end()) {
        note_failure(out, "response to an unknown request id");
        continue;
      }
      const Inflight op = it->second;
      outstanding.erase(it);
      if (response.status != spe::net::Status::Ok) {
        note_failure(out, std::string("status ") + spe::net::to_string(response.status));
      } else if (op.write) {
        out.write_samples.push_back({ns_between(start, now), ns_between(op.sent, now)});
        ++out.writes;
      } else {
        out.read_samples.push_back({ns_between(start, now), ns_between(op.sent, now)});
        ++out.reads;
        if (!shadow.matches(op.index, op.version, response.payload)) ++out.mismatches;
      }
    }
  } catch (const std::exception& e) {
    // The connection is unusable: the failing op and everything still
    // outstanding count as failed.
    out.failed += outstanding.size();
    note_failure(out, e.what());
  }
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : all_workloads())
    if (spec.name == name) return &spec;
  return nullptr;
}

OpStream::OpStream(const WorkloadSpec& spec, std::uint64_t seed, unsigned stream)
    : rng_(spe::util::mix64(seed ^ (0x0F5EEDull * (stream + 1)))),
      blocks_(spec.blocks),
      write_pct_(spec.write_pct) {
  if (spec.zipf <= 0.0) return;
  cdf_.resize(blocks_);
  double sum = 0.0;
  for (unsigned r = 0; r < blocks_; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
  // A fixed permutation spreads the ranks over addresses (and so over
  // shards). It is the same for every seed: which shard holds the hottest
  // block sets how the two workers share the load, and that must not change
  // from run to run.
  rank_to_index_.resize(blocks_);
  std::iota(rank_to_index_.begin(), rank_to_index_.end(), 0u);
  spe::util::Xoshiro256ss perm(0x21FFull);
  for (unsigned i = blocks_; i > 1; --i)
    std::swap(rank_to_index_[i - 1], rank_to_index_[perm.below(i)]);
}

Op OpStream::next() {
  Op op;
  if (cdf_.empty()) {
    op.index = static_cast<unsigned>(rng_.below(blocks_));
  } else {
    const double u = rng_.uniform();
    const auto rank = static_cast<unsigned>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    op.index = rank_to_index_[std::min(rank, blocks_ - 1)];
  }
  op.write = rng_.below(100) < write_pct_;
  return op;
}

Shadow::Shadow(std::uint64_t seed, std::uint64_t base, unsigned blocks, unsigned block_bytes)
    : seed_(seed), base_(base), block_bytes_(block_bytes), versions_(blocks, 1) {}

std::vector<std::uint8_t> Shadow::image(unsigned index, std::uint32_t version) const {
  std::vector<std::uint8_t> data(block_bytes_);
  const std::uint64_t addr = base_ + index;
  std::uint64_t word = 0;
  for (unsigned i = 0; i < block_bytes_; ++i) {
    if (i % 8 == 0)
      word = spe::util::mix64(seed_ ^ (addr << 20) ^ (std::uint64_t{version} << 1) ^ (i / 8));
    data[i] = static_cast<std::uint8_t>(word >> ((i % 8) * 8));
  }
  return data;
}

bool Shadow::matches(unsigned index, std::uint32_t version,
                     std::span<const std::uint8_t> data) const {
  std::vector<std::uint8_t> expected = image(index, version);
  if (corrupted_ == index) expected[0] ^= 0xFF;
  return std::equal(data.begin(), data.end(), expected.begin(), expected.end());
}

std::uint64_t fresh_device_seed() { return next_device_seed.fetch_add(1); }

std::unique_ptr<Deployment> deploy(const WorkloadSpec& spec, std::uint64_t seed,
                                   const spe::runtime::ObsConfig& obs) {
  auto dep = std::make_unique<Deployment>();
  dep->spec = spec;

  spe::runtime::ServiceConfig config;
  config.shards = kShards;
  config.worker_threads = kWorkers;
  config.mode = spec.mode;
  config.scavenger_enabled = spec.background;
  config.scrub_enabled = spec.background;
  config.device_seed_base = next_device_seed.fetch_add(kShards);
  config.obs = obs;
  if (spec.wire) {
    std::vector<spe::tenant::TenantSpec> tenants;
    for (unsigned s = 0; s < spec.streams; ++s) {
      spe::tenant::TenantSpec t;
      t.id = tenant_of(s);
      t.name = "tenant" + std::to_string(t.id);
      t.ranges = {{stream_base(spec, s), stream_base(spec, s) + spec.blocks}};
      t.token_secret = token_secret(t.id);
      t.key_seed = 0x5EC0DE00ull + t.id;
      tenants.push_back(std::move(t));
    }
    dep->tenants = std::make_shared<spe::tenant::TenantRegistry>(std::move(tenants));
    config.tenants = dep->tenants;
  }

  const double solves_before = xbar_solves();
  const auto start = Clock::now();
  dep->service = std::make_unique<spe::runtime::MemoryService>(config);
  dep->times.service_s = seconds_since(start);
  dep->times.xbar_solves = xbar_solves() - solves_before;

  for (unsigned s = 0; s < spec.streams; ++s)
    dep->shadows.emplace_back(seed, stream_base(spec, s), spec.blocks,
                              dep->service->block_bytes());
  const auto preload_start = Clock::now();
  preload(*dep);
  dep->times.preload_s = seconds_since(preload_start);

  if (spec.wire) {
    const auto server_start = Clock::now();
    spe::net::ServerConfig server_config;
    server_config.completion_threads = 1;
    dep->server = std::make_unique<spe::net::Server>(*dep->service, server_config);
    const std::uint16_t port = dep->server->start();
    for (unsigned s = 0; s < spec.streams; ++s) {
      spe::net::ClientConfig client_config;
      client_config.port = port;
      auto client = std::make_unique<spe::net::Client>(client_config);
      client->set_tenant(tenant_of(s), token_secret(tenant_of(s)));
      client->connect();
      dep->clients.push_back(std::move(client));
    }
    dep->times.server_start_s = seconds_since(server_start);
  }
  dep->times.total_s = seconds_since(start);
  return dep;
}

PhaseResult run_phase(Deployment& dep, std::uint64_t seed, double seconds, bool keep_log) {
  const unsigned streams = dep.spec.streams;
  std::vector<PhaseResult> parts(streams);
  std::vector<std::vector<Submission>> logs(streams);
  FractionSampler sampler(*dep.service, std::chrono::milliseconds(10));
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  if (!dep.spec.wire) {
    drive_local(dep, seed, start, deadline, parts[0], keep_log ? &logs[0] : nullptr);
  } else {
    std::vector<std::thread> threads;
    for (unsigned s = 0; s < streams; ++s)
      threads.emplace_back([&, s] {
        drive_wire(dep, s, seed, start, deadline, parts[s], keep_log ? &logs[s] : nullptr);
      });
    for (std::thread& t : threads) t.join();
  }
  PhaseResult result;
  result.seconds = seconds_since(start);
  result.encrypted_fraction = sampler.stop();
  for (PhaseResult& part : parts) {
    result.reads += part.reads;
    result.writes += part.writes;
    result.failed += part.failed;
    result.mismatches += part.mismatches;
    result.read_samples.insert(result.read_samples.end(), part.read_samples.begin(),
                               part.read_samples.end());
    result.write_samples.insert(result.write_samples.end(), part.write_samples.begin(),
                                part.write_samples.end());
    if (result.first_error.empty()) result.first_error = part.first_error;
  }
  for (const auto& log : logs) result.log.insert(result.log.end(), log.begin(), log.end());
  return result;
}

ReadBack verify_resident(Deployment& dep) {
  constexpr std::size_t kChunk = 64;
  ReadBack rb;
  std::uint64_t expected = 0;
  for (const Shadow& shadow : dep.shadows) expected += shadow.blocks();
  const std::vector<std::uint64_t> resident = dep.service->resident_blocks();
  rb.blocks = resident.size();
  if (resident.size() != expected)
    rb.failures += resident.size() > expected ? resident.size() - expected
                                              : expected - resident.size();
  for (std::size_t first = 0; first < resident.size(); first += kChunk) {
    const std::span<const std::uint64_t> addrs(
        resident.data() + first, std::min(kChunk, resident.size() - first));
    auto reads = dep.service->submit_read_batch(addrs);
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      const auto shadow = std::find_if(dep.shadows.begin(), dep.shadows.end(),
                                       [&](const Shadow& s) { return s.owns(addrs[i]); });
      try {
        const std::vector<std::uint8_t> data = reads[i].get();
        if (shadow == dep.shadows.end()) {
          ++rb.failures;
          continue;
        }
        const auto index = static_cast<unsigned>(addrs[i] - shadow->addr(0));
        if (!shadow->matches(index, shadow->current(index), data)) ++rb.failures;
      } catch (const std::exception&) {
        ++rb.failures;
      }
    }
  }
  return rb;
}

void quiesce(Deployment& dep) {
  dep.clients.clear();
  if (dep.server) dep.server->stop();
  dep.service->stop();
}

}  // namespace perfbench
