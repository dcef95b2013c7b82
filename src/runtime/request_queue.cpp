#include "runtime/request_queue.hpp"

#include <utility>

namespace spe::runtime {

RequestQueue::RequestQueue(unsigned shard_id, std::size_t capacity,
                           BackpressurePolicy policy, ShardCounters& counters)
    : shard_id_(shard_id),
      capacity_(capacity ? capacity : 1),
      policy_(policy),
      counters_(counters) {}

void RequestQueue::admit(std::unique_lock<std::mutex>& lock) {
  if (closed()) throw ServiceStoppedError(shard_id_);
  if (pending_.size() < capacity_) return;
  if (policy_ == BackpressurePolicy::Reject) {
    counters_.rejected.add();
    throw QueueFullError(shard_id_, pending_.size());
  }
  not_full_.wait(lock, [this] { return closed() || pending_.size() < capacity_; });
  if (closed()) throw ServiceStoppedError(shard_id_);
}

std::future<std::vector<std::uint8_t>> RequestQueue::push_read(std::uint64_t block_addr) {
  std::unique_lock lock(mutex_);
  admit(lock);
  Request req;
  req.kind = Request::Kind::Read;
  req.block_addr = block_addr;
  req.enqueued = std::chrono::steady_clock::now();
  auto future = req.read_promise.get_future();
  // A pending write for this block must no longer coalesce: a later write
  // merging into it would jump over this read.
  open_writes_.erase(block_addr);
  pending_.push_back(std::move(req));
  depth_.store(pending_.size(), std::memory_order_release);
  counters_.note_queue_depth(pending_.size());
  return future;
}

std::future<void> RequestQueue::push_write(std::uint64_t block_addr,
                                           std::vector<std::uint8_t> data) {
  std::unique_lock lock(mutex_);
  if (!closed()) {
    // Coalescing needs no queue slot, so it also bypasses backpressure.
    if (const auto it = open_writes_.find(block_addr); it != open_writes_.end()) {
      Request& open = pending_[it->second];
      open.data = std::move(data);
      Request::WriteWaiter waiter;
      waiter.enqueued = std::chrono::steady_clock::now();
      auto future = waiter.promise.get_future();
      open.write_waiters.push_back(std::move(waiter));
      counters_.writes_coalesced.add();
      return future;
    }
  }
  admit(lock);
  Request req;
  req.kind = Request::Kind::Write;
  req.block_addr = block_addr;
  req.data = std::move(data);
  Request::WriteWaiter waiter;
  waiter.enqueued = std::chrono::steady_clock::now();
  auto future = waiter.promise.get_future();
  req.write_waiters.push_back(std::move(waiter));
  open_writes_[block_addr] = pending_.size();
  pending_.push_back(std::move(req));
  depth_.store(pending_.size(), std::memory_order_release);
  counters_.note_queue_depth(pending_.size());
  return future;
}

std::vector<Request> RequestQueue::drain() {
  std::vector<Request> batch;
  {
    std::lock_guard lock(mutex_);
    batch.swap(pending_);
    open_writes_.clear();
    depth_.store(0, std::memory_order_release);
  }
  not_full_.notify_all();
  return batch;
}

void RequestQueue::close() {
  {
    std::lock_guard lock(mutex_);
    closed_.store(true, std::memory_order_release);
  }
  not_full_.notify_all();
}

}  // namespace spe::runtime
