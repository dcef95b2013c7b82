#pragma once
// Per-shard bounded MPSC request queue. Any thread may submit; exactly one
// worker drains, taking the whole pending batch at once so the shard lock
// and wakeup cost amortise over bursts. Backpressure is configurable
// (Block: producers wait for a slot; Reject: QueueFullError), and queued
// same-block writes coalesce — the latest payload wins and every submitted
// future still completes — unless a read of that block was enqueued after
// the pending write (coalescing across it would reorder read-after-write).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "runtime/service_config.hpp"
#include "runtime/shard_counters.hpp"

namespace spe::runtime {

struct Request {
  enum class Kind : std::uint8_t { Read, Write };

  /// One write submission folded into this request (a fresh write has one;
  /// coalescing appends more).
  struct WriteWaiter {
    std::promise<void> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  Kind kind = Kind::Read;
  std::uint64_t block_addr = 0;
  std::vector<std::uint8_t> data;  ///< write payload (latest wins)
  std::promise<std::vector<std::uint8_t>> read_promise;
  std::chrono::steady_clock::time_point enqueued;  ///< read submission time
  std::vector<WriteWaiter> write_waiters;
};

class RequestQueue {
public:
  RequestQueue(unsigned shard_id, std::size_t capacity, BackpressurePolicy policy,
               ShardCounters& counters);

  /// Producer side. Throws QueueFullError when the Reject policy bounces
  /// the request, ServiceStoppedError once the queue is closed.
  [[nodiscard]] std::future<std::vector<std::uint8_t>> push_read(std::uint64_t block_addr);
  [[nodiscard]] std::future<void> push_write(std::uint64_t block_addr,
                                             std::vector<std::uint8_t> data);

  /// Consumer side: removes and returns everything queued (FIFO order).
  [[nodiscard]] std::vector<Request> drain();

  /// Approximate depth, readable without the lock (worker wait predicates).
  [[nodiscard]] std::size_t depth() const noexcept {
    return depth_.load(std::memory_order_acquire);
  }

  /// Shutdown: wakes blocked producers (they throw ServiceStoppedError) and
  /// makes all later pushes throw it. Already-queued requests stay
  /// drainable.
  void close();

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

private:
  /// Waits for a slot (Block) or throws (Reject / closed). Returns with
  /// mutex_ held via the caller's lock.
  void admit(std::unique_lock<std::mutex>& lock);

  unsigned shard_id_;
  std::size_t capacity_;
  BackpressurePolicy policy_;
  ShardCounters& counters_;

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::vector<Request> pending_;  ///< append-only between drains
  std::unordered_map<std::uint64_t, std::size_t> open_writes_;  ///< addr -> pending_ index
  std::atomic<std::size_t> depth_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace spe::runtime
