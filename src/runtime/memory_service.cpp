#include "runtime/memory_service.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/key.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace spe::runtime {

namespace {
// splitmix64 finaliser: decorrelates shard choice from address strides so a
// sequential walk still spreads over all banks.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// One exported family per ShardCounters instrument. fill_metrics reads each
/// shard's instrument once; `per_shard` counter families also carry that
/// value as a {shard="s"} series, so a total always equals the sum of its
/// series.
template <typename Instrument>
struct Row {
  const char* name;
  const char* help;
  Instrument ShardCounters::*field;
  bool per_shard = false;
};
constexpr Row<obs::Counter> kCounterRows[] = {
    {"spe_reads_total", "completed read operations", &ShardCounters::reads_completed, true},
    {"spe_writes_total", "completed write operations (all waiters)",
     &ShardCounters::writes_completed, true},
    {"spe_writes_coalesced_total", "write futures satisfied by a merged write",
     &ShardCounters::writes_coalesced},
    {"spe_requests_rejected_total", "Reject-policy queue bounces", &ShardCounters::rejected},
    {"spe_background_encrypted_total", "blocks re-encrypted by the scavenger",
     &ShardCounters::background_encrypted},
    {"spe_faults_detected_total", "ECC verify events that found damage",
     &ShardCounters::faults_detected, true},
    {"spe_faults_corrected_total", "cells repaired by SEC-DED", &ShardCounters::faults_corrected},
    {"spe_faults_uncorrectable_total", "ops or scrubs abandoned as uncorrectable",
     &ShardCounters::faults_uncorrectable},
    {"spe_blocks_quarantined_total", "quarantine insertions", &ShardCounters::blocks_quarantined},
    {"spe_blocks_remapped_total", "spare-location remaps", &ShardCounters::blocks_remapped},
    {"spe_blocks_scrubbed_total", "scrub verifications run", &ShardCounters::blocks_scrubbed},
    {"spe_read_retries_total", "extra sense attempts after a failed verify",
     &ShardCounters::read_retries},
    {"spe_write_retries_total", "extra program attempts after a failed verify",
     &ShardCounters::write_retries},
};
constexpr Row<obs::Histogram> kHistogramRows[] = {
    {"spe_read_latency_ns", "submit to future-fulfilled read latency",
     &ShardCounters::read_latency},
    {"spe_write_latency_ns", "submit to future-fulfilled write latency",
     &ShardCounters::write_latency},
    {"spe_background_latency_ns", "one scavenger block re-encryption",
     &ShardCounters::background_latency},
};

/// a + b, clamped at uint64 max: totals stay monotonic instead of wrapping.
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) noexcept {
  return b > std::numeric_limits<std::uint64_t>::max() - a
             ? std::numeric_limits<std::uint64_t>::max()
             : a + b;
}

std::string shard_label(unsigned shard) {
  return "{shard=\"" + std::to_string(shard) + "\"}";
}

constexpr char kCheckpointMagic[8] = {'S', 'P', 'E', 'S', 'V', 'C', 'K', '1'};

ServiceConfig normalized(ServiceConfig config) {
  if (config.shards == 0) config.shards = 1;
  if (config.worker_threads == 0) config.worker_threads = 1;
  if (config.worker_threads > config.shards) config.worker_threads = config.shards;
  return config;
}

// Builds shards 0..count-1 with make(id) on min(count, hardware threads)
// short-lived threads. Construction is dominated by each shard device's
// calibration (a CPU-bound physics solve per device), so distinct devices
// build in parallel; the result is indexed by shard id, identical to a
// serial build. Builders claim ids from a counter and stop claiming after
// the first failure, which is rethrown once every builder has joined.
template <typename Make>
std::vector<std::unique_ptr<BankShard>> build_shards(unsigned count, Make make) {
  std::vector<std::unique_ptr<BankShard>> shards(count);
  std::atomic<unsigned> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // guarded by error_mutex
  const auto builder = [&] {
    for (unsigned s; (s = next.fetch_add(1)) < count;) {
      try {
        shards[s] = make(s);
      } catch (...) {
        next.store(count);
        std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  {
    // jthreads join on destruction, also when starting a later one throws.
    std::vector<std::jthread> pool;
    const unsigned threads = std::min(count, std::max(1u, std::thread::hardware_concurrency()));
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(builder);
  }
  if (error) std::rethrow_exception(error);
  return shards;
}

// One plan shared by every shard: decisions are keyed by (device id,
// block, cell, epoch, event), so sharing costs nothing and keeps the
// whole service replayable from a single seed.
std::shared_ptr<const fault::FaultPlan> make_plan(const ServiceConfig& config) {
  if (config.fault_injection && config.faults.any())
    return std::make_shared<fault::FaultPlan>(config.fault_seed, config.faults);
  return nullptr;
}

void write_u64(std::ostream& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out.write(buf, 8);
}

std::uint64_t read_u64(std::istream& in, const char* what) {
  char buf[8];
  in.read(buf, 8);
  if (static_cast<std::size_t>(in.gcount()) != 8 || !in)
    throw std::runtime_error(std::string("service checkpoint: truncated while reading ") +
                             what);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  return v;
}

/// The checkpoint stream: magic, shard count, then each shard's
/// BankShard::save_state blob behind its length.
void write_checkpoint(std::ostream& out, std::span<const std::string> shard_blobs) {
  out.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  write_u64(out, shard_blobs.size());
  for (const std::string& blob : shard_blobs) {
    write_u64(out, blob.size());
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  if (!out) throw std::runtime_error("service checkpoint: write failure");
}
}  // namespace

MemoryService::MemoryService(ServiceConfig config) : config_(normalized(config)) {
  const auto plan = make_plan(config_);
  shards_ = build_shards(config_.shards, [&](unsigned s) {
    return std::make_unique<BankShard>(s, config_, plan);
  });
  provision_and_power();
  start_threads();
}

MemoryService::MemoryService(ServiceConfig config, std::istream& checkpoint)
    : config_(normalized(config)) {
  init_from_checkpoint(checkpoint);
}

MemoryService::MemoryService(ServiceConfig config, const std::string& checkpoint_path)
    : config_(normalized(config)) {
  std::ifstream in(checkpoint_path, std::ios::binary);
  if (!in) throw std::runtime_error("service checkpoint: cannot open " + checkpoint_path);
  init_from_checkpoint(in);
}

void MemoryService::init_from_checkpoint(std::istream& checkpoint) {
  char magic[sizeof(kCheckpointMagic)];
  checkpoint.read(magic, sizeof(magic));
  if (static_cast<std::size_t>(checkpoint.gcount()) != sizeof(magic) ||
      std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0)
    throw std::runtime_error("service checkpoint: bad magic");
  const std::uint64_t shard_count = read_u64(checkpoint, "shard count");
  if (shard_count != config_.shards)
    throw std::runtime_error("service checkpoint: shard count mismatch (checkpoint has " +
                             std::to_string(shard_count) + ", config wants " +
                             std::to_string(config_.shards) + ")");

  // The stream is read in order; the shards are then built in parallel.
  std::vector<std::string> blobs(config_.shards);
  for (std::string& blob : blobs) {
    const std::uint64_t length = read_u64(checkpoint, "shard blob length");
    blob.resize(length);
    checkpoint.read(blob.data(), static_cast<std::streamsize>(length));
    if (static_cast<std::uint64_t>(checkpoint.gcount()) != length)
      throw std::runtime_error("service checkpoint: truncated while reading shard blob");
  }
  const auto plan = make_plan(config_);
  shards_ = build_shards(config_.shards, [&](unsigned s) {
    std::istringstream in(std::move(blobs[s]));
    return std::make_unique<BankShard>(s, config_, plan, in);
  });
  provision_and_power();
  // Journal recovery before any worker can touch the shards: replay or roll
  // back what the crash caught mid-flight, quarantine what is torn.
  recovery_report_.shards.reserve(config_.shards);
  for (auto& shard : shards_) recovery_report_.shards.push_back(shard->recover());
  // Quota accounting is volatile; recount what actually survived so a
  // restarted tenant neither inherits stale charges nor double-charges.
  if (config_.tenants) {
    std::map<tenant::TenantId, std::uint64_t> resident;
    for (const auto& shard : shards_)
      for (const std::uint64_t addr : shard->resident_blocks())
        ++resident[config_.tenants->owner_of(addr)];
    config_.tenants->set_resident_blocks(tenant::kDefaultTenant,
                                         resident[tenant::kDefaultTenant]);
    for (const tenant::TenantId tid : config_.tenants->ids())
      config_.tenants->set_resident_blocks(tid, resident[tid]);
  }
  start_threads();
}

void MemoryService::provision_and_power() {
  // Before recovery and thread startup so restore-path recovery spans land
  // in the session. Tracing is process-global; the last service to start
  // with obs.trace set owns the session.
  if (config_.obs.trace) {
    obs::TraceConfig trace;
    trace.deterministic = config_.obs.deterministic_trace;
    trace.trace_pulses = config_.obs.trace_pulses;
    trace.buffer_events = config_.obs.trace_buffer_events;
    obs::Tracer::instance().enable(trace);
  }
  util::Xoshiro256ss rng(config_.key_seed);
  const core::SpeKey key = core::SpeKey::random(rng);
  for (auto& shard : shards_) {
    tpm_.provision(shard->device_id(), config_.platform_measurement, key);
    if (!shard->power_on(tpm_, config_.platform_measurement))
      throw std::runtime_error("MemoryService: shard power-on handshake failed");
  }
  if (config_.tenants) {
    auto& reg = *config_.tenants;
    for (const tenant::TenantId tid : reg.ids()) {
      // Seal a key per (device, tenant, epoch) for every epoch in play: the
      // registry's (fresh path) plus whatever the shard checkpoints name —
      // after a crash mid-rotation a shard may still read under an older
      // epoch, and a fresh registry starts everyone at 0.
      std::set<std::uint32_t> epochs{reg.key_epoch(tid)};
      for (const auto& shard : shards_)
        for (const auto& [t, e] : shard->restored_epochs())
          if (t == tid) epochs.insert(e);
      for (const std::uint32_t epoch : epochs) {
        const core::SpeKey tenant_key = reg.derive_key(tid, epoch);
        for (auto& shard : shards_)
          tpm_.provision(
              tenant::TenantRegistry::key_handle(shard->device_id(), tid, epoch),
              config_.platform_measurement, tenant_key);
      }
    }
    for (auto& shard : shards_)
      if (!shard->power_on_tenants(tpm_, config_.platform_measurement))
        throw std::runtime_error("MemoryService: tenant power-on handshake failed");
  }
}

void MemoryService::start_threads() {
  workers_.reserve(config_.worker_threads);
  for (unsigned w = 0; w < config_.worker_threads; ++w)
    workers_.push_back(std::make_unique<Worker>());
  for (unsigned s = 0; s < config_.shards; ++s)
    workers_[s % config_.worker_threads]->shards.push_back(shards_[s].get());
  for (auto& worker : workers_)
    worker->thread = std::thread([this, &w = *worker] { worker_loop(w); });

  // The background thread runs when there is anything for it to do:
  // re-encryption scavenging (serial mode), rotation draining (any mode
  // with tenant key domains), and/or the piggybacked scrub.
  const bool wants_scavenge =
      config_.scavenger_enabled &&
      (config_.mode == core::SpeMode::Serial || config_.tenants != nullptr);
  const bool wants_scrub = config_.scrub_enabled && config_.ecc_enabled;
  if (wants_scavenge || wants_scrub)
    scavenger_ = std::thread([this] { scavenger_loop(); });
}

MemoryService::~MemoryService() { stop(); }

unsigned MemoryService::shard_of(std::uint64_t block_addr) const noexcept {
  return static_cast<unsigned>(mix64(block_addr) % shards_.size());
}

std::future<std::vector<std::uint8_t>> MemoryService::submit_read(std::uint64_t block_addr) {
  const unsigned s = shard_of(block_addr);
  // Instant, stamped before the push: once the request is queued a worker
  // can execute it immediately, so a span closing after the push would
  // interleave its end tick with the worker's events.
  obs::Tracer::instance().instant("svc.submit", block_addr, s);
  auto future = shards_[s]->queue().push_read(block_addr);
  notify_worker(s);
  return future;
}

std::future<void> MemoryService::submit_write(std::uint64_t block_addr,
                                              std::span<const std::uint8_t> data) {
  const unsigned s = shard_of(block_addr);
  obs::Tracer::instance().instant("svc.submit", block_addr, s);
  auto future =
      shards_[s]->queue().push_write(block_addr, {data.begin(), data.end()});
  notify_worker(s);
  return future;
}

std::vector<std::future<std::vector<std::uint8_t>>> MemoryService::submit_read_batch(
    std::span<const std::uint64_t> addrs) {
  std::vector<std::future<std::vector<std::uint8_t>>> futures;
  futures.reserve(addrs.size());
  for (const std::uint64_t addr : addrs) {
    const unsigned s = shard_of(addr);
    obs::Tracer::instance().instant("svc.submit", addr, s);
    try {
      futures.push_back(shards_[s]->queue().push_read(addr));
    } catch (...) {
      // Reject bounce / racing stop: fail this entry only, keep the batch.
      std::promise<std::vector<std::uint8_t>> bounced;
      bounced.set_exception(std::current_exception());
      futures.push_back(bounced.get_future());
      continue;
    }
    // Per-push wakeup: under the Block policy a later push in this batch may
    // wait for a drain, so the worker must already know about this one.
    notify_worker(s);
  }
  return futures;
}

std::vector<std::future<void>> MemoryService::submit_write_batch(
    std::span<const std::uint64_t> addrs, std::span<const std::uint8_t> data) {
  const std::size_t bytes = block_bytes();
  if (data.size() != addrs.size() * bytes)
    throw std::invalid_argument(
        "MemoryService::submit_write_batch: data must be addrs * block_bytes");
  std::vector<std::future<void>> futures;
  futures.reserve(addrs.size());
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    const std::uint64_t addr = addrs[i];
    const unsigned s = shard_of(addr);
    obs::Tracer::instance().instant("svc.submit", addr, s);
    const auto block = data.subspan(i * bytes, bytes);
    try {
      futures.push_back(
          shards_[s]->queue().push_write(addr, {block.begin(), block.end()}));
    } catch (...) {
      std::promise<void> bounced;
      bounced.set_exception(std::current_exception());
      futures.push_back(bounced.get_future());
      continue;
    }
    notify_worker(s);
  }
  return futures;
}

std::vector<std::uint8_t> MemoryService::read(std::uint64_t block_addr) {
  return submit_read(block_addr).get();
}

void MemoryService::write(std::uint64_t block_addr, std::span<const std::uint8_t> data) {
  submit_write(block_addr, data).get();
}

void MemoryService::notify_worker(unsigned shard) {
  Worker& worker = *workers_[shard % workers_.size()];
  {
    // Empty critical section: pairs the push with the worker's predicate
    // re-check so a wakeup between check and wait cannot be lost.
    std::lock_guard lock(worker.mutex);
  }
  worker.cv.notify_one();
}

void MemoryService::worker_loop(Worker& worker) {
  const auto pending = [&worker] {
    for (BankShard* shard : worker.shards)
      if (shard->queue().depth() > 0) return true;
    return false;
  };
  for (;;) {
    bool executed = false;
    for (BankShard* shard : worker.shards) {
      auto batch = shard->queue().drain();
      if (!batch.empty()) {
        shard->execute_batch(std::move(batch));
        executed = true;
      }
    }
    if (executed) continue;
    std::unique_lock lock(worker.mutex);
    worker.cv.wait(lock, [&] { return stopping_.load(std::memory_order_acquire) || pending(); });
    if (stopping_.load(std::memory_order_acquire)) break;
  }
  // Queues are closed before stopping_ is set, so this final drain settles
  // every outstanding future.
  for (BankShard* shard : worker.shards) shard->execute_batch(shard->queue().drain());
}

void MemoryService::scavenger_loop() {
  const bool wants_scavenge =
      config_.scavenger_enabled &&
      (config_.mode == core::SpeMode::Serial || config_.tenants != nullptr);
  const bool wants_scrub = config_.scrub_enabled && config_.ecc_enabled;
  std::unique_lock lock(scavenger_mutex_);
  while (!stopping_.load(std::memory_order_acquire)) {
    lock.unlock();
    for (auto& shard : shards_) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (wants_scavenge) shard->scavenge(config_.scavenger_blocks_per_pass);
      if (wants_scrub) shard->scrub(config_.scrub_blocks_per_pass);
    }
    lock.lock();
    scavenger_cv_.wait_for(lock, config_.scavenger_interval,
                           [this] { return stopping_.load(std::memory_order_acquire); });
  }
}

void MemoryService::stop() {
  if (stop_started_.exchange(true, std::memory_order_acq_rel)) {
    // Lost the race: wait for the winning caller to finish so every stop()
    // returns to a fully-stopped service (double-stop used to be unguarded).
    std::unique_lock lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stop_done_; });
    return;
  }
  for (auto& shard : shards_) shard->queue().close();
  stopping_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    {
      std::lock_guard lock(worker->mutex);
    }
    worker->cv.notify_all();
  }
  {
    std::lock_guard lock(scavenger_mutex_);
  }
  scavenger_cv_.notify_all();
  for (auto& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
  if (scavenger_.joinable()) scavenger_.join();

  // Backstop for shutdown races: anything still queued after the workers'
  // final drain fails with the typed stop error instead of surfacing as a
  // std::future_error from an abandoned promise.
  for (auto& shard : shards_) {
    for (Request& req : shard->queue().drain()) {
      const auto error =
          std::make_exception_ptr(ServiceStoppedError(shard->id()));
      if (req.kind == Request::Kind::Read) {
        req.read_promise.set_exception(error);
      } else {
        for (Request::WriteWaiter& waiter : req.write_waiters)
          waiter.promise.set_exception(error);
      }
    }
  }

  {
    std::lock_guard lock(stop_mutex_);
    stop_done_ = true;
  }
  stop_cv_.notify_all();
}

std::vector<std::string> MemoryService::shard_blobs() const {
  std::vector<std::string> blobs;
  blobs.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::ostringstream blob;
    shard->save_state(blob);
    blobs.push_back(std::move(blob).str());
  }
  return blobs;
}

void MemoryService::checkpoint(std::ostream& out) const {
  write_checkpoint(out, shard_blobs());
}

void MemoryService::checkpoint_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("service checkpoint: cannot open " + path);
  checkpoint(out);
}

std::vector<std::string> MemoryService::capture_kill_points(
    unsigned shard_id, const std::function<void()>& op) {
  std::vector<std::string> blobs = shard_blobs();
  BankShard& target = *shards_.at(shard_id);
  std::vector<std::string> kill_points;
  // The hook runs on the worker thread under the shard's state lock; the
  // disarming set_crash_hook takes that lock, which orders every append
  // before the reads below.
  target.set_crash_hook(
      [&kill_points](unsigned, const std::string& blob) { kill_points.push_back(blob); });
  try {
    op();
  } catch (...) {
    target.set_crash_hook(nullptr);
    throw;
  }
  target.set_crash_hook(nullptr);

  std::vector<std::string> images;
  images.reserve(kill_points.size());
  for (std::string& blob : kill_points) {
    blobs[shard_id] = std::move(blob);
    std::ostringstream image;
    write_checkpoint(image, blobs);
    images.push_back(std::move(image).str());
  }
  return images;
}

std::vector<std::uint64_t> MemoryService::resident_blocks() const {
  std::vector<std::uint64_t> addrs;
  for (const auto& shard : shards_) {
    const std::vector<std::uint64_t> part = shard->resident_blocks();
    addrs.insert(addrs.end(), part.begin(), part.end());
  }
  std::sort(addrs.begin(), addrs.end());
  return addrs;
}

MemoryService::RotationResult MemoryService::rotate_tenant_key(tenant::TenantId tenant) {
  if (!config_.tenants)
    throw std::logic_error("MemoryService::rotate_tenant_key: no tenant registry");
  // One rotation at a time: tpm_ (a plain map) is written here and read by
  // the per-shard power-on handshakes this call makes.
  std::lock_guard lock(rotation_mutex_);
  auto& reg = *config_.tenants;
  if (reg.spec(tenant) == nullptr)
    throw std::invalid_argument("MemoryService::rotate_tenant_key: unknown tenant " +
                                std::to_string(tenant));
  const std::uint32_t epoch = reg.advance_epoch(tenant);
  const core::SpeKey key = reg.derive_key(tenant, epoch);
  for (auto& shard : shards_)
    tpm_.provision(tenant::TenantRegistry::key_handle(shard->device_id(), tenant, epoch),
                   config_.platform_measurement, key);
  RotationResult result;
  result.epoch = epoch;
  for (auto& shard : shards_)
    result.scheduled +=
        shard->begin_rotation(tenant, epoch, tpm_, config_.platform_measurement);
  // The scavenger drains the scheduled blocks on its normal cadence
  // (scavenger_interval defaults to 500us, so the drain begins immediately
  // for practical purposes).
  return result;
}

std::uint64_t MemoryService::rotation_pending(tenant::TenantId tenant) const {
  std::uint64_t pending = 0;
  for (const auto& shard : shards_) pending += shard->rotation_pending(tenant);
  return pending;
}

unsigned MemoryService::scrub_all() {
  unsigned scrubbed = 0;
  // scrub() caps one call at the shard's resident count, so a single
  // max-bounded call is exactly one full pass.
  for (auto& shard : shards_)
    scrubbed += shard->scrub(std::numeric_limits<unsigned>::max());
  return scrubbed;
}

void MemoryService::fill_metrics(obs::MetricsRegistry& registry) const {
  const auto counter = [&registry](const std::string& name, const std::string& help,
                                   std::uint64_t v) { registry.counter(name, help).add(v); };

  for (const Row<obs::Counter>& row : kCounterRows) {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      const std::uint64_t v = (shard->counters().*row.field).value();
      if (row.per_shard) counter(row.name + shard_label(shard->id()), "", v);
      total = sat_add(total, v);
    }
    counter(row.name, row.help, total);
  }
  for (const Row<obs::Histogram>& row : kHistogramRows) {
    obs::Histogram& total = registry.histogram(row.name, row.help);
    for (const auto& shard : shards_)
      total.merge_buckets((shard->counters().*row.field).snapshot());
  }

  std::uint64_t injected = 0, queue_high_water = 0;
  std::size_t queue_depth = 0, plaintext = 0, resident = 0, quarantined = 0;
  core::Specu::Stats crypto;
  for (const auto& shard : shards_) {
    const std::size_t depth = shard->queue().depth();
    registry.gauge("spe_queue_depth" + shard_label(shard->id()), "")
        .set(static_cast<double>(depth));
    queue_depth += depth;
    queue_high_water = std::max(
        queue_high_water, shard->counters().queue_high_water.load(std::memory_order_relaxed));
    const BankShard::Occupancy occ = shard->occupancy();
    plaintext += occ.plaintext;
    resident += occ.resident;
    quarantined += shard->quarantined_blocks();
    injected = sat_add(injected, shard->injected_faults());
    const core::Specu::Stats s = shard->specu_stats();
    crypto.encrypt_ops += s.encrypt_ops;
    crypto.decrypt_ops += s.decrypt_ops;
    crypto.encrypt_pulses += s.encrypt_pulses;
    crypto.decrypt_pulses += s.decrypt_pulses;
  }
  counter("spe_injected_faults_total", "faults materialised by the injectors", injected);
  counter("spe_trace_events_dropped_total", "trace events dropped by full rings",
          obs::Tracer::instance().dropped());

  counter("spe_encrypt_ops_total", "per crossbar-unit encryptions",
          crypto.encrypt_ops);
  counter("spe_decrypt_ops_total", "per crossbar-unit decryptions",
          crypto.decrypt_ops);
  counter("spe_encrypt_pulses_total", "PoE pulses applied encrypting",
          crypto.encrypt_pulses);
  counter("spe_decrypt_pulses_total", "reverse pulses applied decrypting",
          crypto.decrypt_pulses);

  registry.gauge("spe_queue_depth", "requests currently queued across shards")
      .set(static_cast<double>(queue_depth));
  registry.gauge("spe_queue_high_water", "deepest per-shard queue observed")
      .set(static_cast<double>(queue_high_water));
  registry.gauge("spe_plaintext_blocks", "blocks resting decrypted (SPE-serial window)")
      .set(static_cast<double>(plaintext));
  registry.gauge("spe_resident_blocks", "blocks resident across shards")
      .set(static_cast<double>(resident));
  registry.gauge("spe_quarantined_blocks", "blocks currently quarantined")
      .set(static_cast<double>(quarantined));
  registry.gauge("spe_encrypted_fraction", "fraction of resident blocks encrypted")
      .set(resident == 0 ? 1.0
                         : (static_cast<double>(resident) - static_cast<double>(plaintext)) /
                               static_cast<double>(resident));
  registry.gauge("spe_shards", "bank shards in the service")
      .set(static_cast<double>(shards_.size()));

  if (config_.tenants) {
    const auto& reg = *config_.tenants;
    const auto load = [](const std::atomic<std::uint64_t>& v) {
      return v.load(std::memory_order_relaxed);
    };
    for (const tenant::TenantId tid : reg.ids()) {
      const tenant::TenantSpec* spec = reg.spec(tid);
      const tenant::TenantCounters& c = reg.counters(tid);
      const std::string label = "{tenant=\"" + spec->name + "\"}";
      counter("spe_tenant_reads_total" + label, "reads completed per tenant",
              load(c.reads));
      counter("spe_tenant_writes_total" + label, "writes completed per tenant",
              load(c.writes));
      counter("spe_tenant_denied_total" + label,
              "cross-tenant or unauthorized operations refused", load(c.denied));
      counter("spe_tenant_auth_failures_total" + label,
              "wire tokens that failed MAC verification", load(c.auth_failures));
      counter("spe_tenant_quota_rejections_total" + label,
              "writes refused over the tenant block quota",
              load(c.quota_rejections));
      counter("spe_tenant_admission_rejections_total" + label,
              "requests refused over the tenant inflight cap",
              load(c.admission_rejections));
      counter("spe_tenant_rotations_total" + label, "key rotations scheduled",
              load(c.rotations));
      registry.gauge("spe_tenant_resident_blocks" + label,
                     "blocks resident per tenant (quota accounting)")
          .set(static_cast<double>(load(c.resident_blocks)));
      registry.gauge("spe_tenant_rotation_pending" + label,
                     "blocks still resting under the tenant's previous key")
          .set(static_cast<double>(rotation_pending(tid)));
      registry.gauge("spe_tenant_key_epoch" + label, "current key epoch per tenant")
          .set(static_cast<double>(reg.key_epoch(tid)));
    }
  }

  // Cross-layer counters that accumulate below the runtime (journal
  // transitions, crossbar solves, recovery classifications).
  obs::MetricsRegistry::global().merge_into(registry);
}

std::string MemoryService::export_metrics(obs::MetricsFormat format) const {
  obs::MetricsRegistry registry;
  fill_metrics(registry);
  return registry.render(format);
}

double MemoryService::encrypted_fraction() const {
  std::size_t resident = 0;
  double encrypted = 0.0;
  for (const auto& shard : shards_) {
    const BankShard::Occupancy occ = shard->occupancy();
    resident += occ.resident;
    encrypted += static_cast<double>(occ.resident - occ.plaintext);
  }
  return resident == 0 ? 1.0 : encrypted / static_cast<double>(resident);
}

}  // namespace spe::runtime
