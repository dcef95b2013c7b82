#include "runtime/request_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace spe::runtime {
namespace {

std::vector<std::uint8_t> payload(std::uint8_t fill) { return std::vector<std::uint8_t>(64, fill); }

TEST(RequestQueue, RejectPolicyThrowsTypedErrorWhenFull) {
  ShardCounters counters;
  RequestQueue q(3, 2, BackpressurePolicy::Reject, counters);
  auto f1 = q.push_write(1, payload(1));
  auto f2 = q.push_write(2, payload(2));
  try {
    auto f3 = q.push_read(3);
    FAIL() << "expected QueueFullError";
  } catch (const QueueFullError& e) {
    EXPECT_EQ(e.shard(), 3u);
    EXPECT_EQ(e.depth(), 2u);
  }
  EXPECT_EQ(counters.rejected.value(), 1u);
  EXPECT_EQ(q.depth(), 2u);
  (void)q.drain();  // settle futures' promises (dropped => broken_promise is fine here)
}

TEST(RequestQueue, BlockPolicyWaitsForDrain) {
  ShardCounters counters;
  RequestQueue q(0, 1, BackpressurePolicy::Block, counters);
  auto f1 = q.push_write(1, payload(1));
  std::atomic<bool> second_admitted{false};
  std::thread producer([&] {
    auto f2 = q.push_write(2, payload(2));
    second_admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_admitted.load());  // still parked on the full queue
  EXPECT_EQ(q.drain().size(), 1u);       // frees the slot
  producer.join();
  EXPECT_TRUE(second_admitted.load());
  EXPECT_EQ(q.drain().size(), 1u);
  EXPECT_EQ(counters.rejected.value(), 0u);
}

TEST(RequestQueue, SameBlockWritesCoalesceLatestWins) {
  ShardCounters counters;
  RequestQueue q(0, 8, BackpressurePolicy::Reject, counters);
  auto f1 = q.push_write(7, payload(0xAA));
  auto f2 = q.push_write(7, payload(0xBB));
  auto f3 = q.push_write(9, payload(0xCC));
  EXPECT_EQ(q.depth(), 2u);  // the merge consumed no slot
  EXPECT_EQ(counters.writes_coalesced.value(), 1u);
  auto batch = q.drain();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].block_addr, 7u);
  EXPECT_EQ(batch[0].data, payload(0xBB));  // latest payload won
  EXPECT_EQ(batch[0].write_waiters.size(), 2u);  // both futures still pending
  EXPECT_EQ(batch[1].block_addr, 9u);
}

TEST(RequestQueue, CoalescingBypassesBackpressure) {
  ShardCounters counters;
  RequestQueue q(0, 1, BackpressurePolicy::Reject, counters);
  auto f1 = q.push_write(5, payload(1));
  auto f2 = q.push_write(5, payload(2));  // full queue, but merges in place
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_THROW((void)q.push_write(6, payload(3)), QueueFullError);
  (void)q.drain();
}

TEST(RequestQueue, InterveningReadStopsCoalescing) {
  ShardCounters counters;
  RequestQueue q(0, 8, BackpressurePolicy::Reject, counters);
  auto w1 = q.push_write(7, payload(0xAA));
  auto r = q.push_read(7);
  auto w2 = q.push_write(7, payload(0xBB));  // must NOT merge across the read
  auto batch = q.drain();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].kind, Request::Kind::Write);
  EXPECT_EQ(batch[0].data, payload(0xAA));  // the read still sees 0xAA
  EXPECT_EQ(batch[1].kind, Request::Kind::Read);
  EXPECT_EQ(batch[2].kind, Request::Kind::Write);
  EXPECT_EQ(batch[2].data, payload(0xBB));
  EXPECT_EQ(counters.writes_coalesced.value(), 0u);
}

TEST(RequestQueue, DrainResetsCoalescingWindow) {
  ShardCounters counters;
  RequestQueue q(0, 8, BackpressurePolicy::Reject, counters);
  auto f1 = q.push_write(7, payload(1));
  EXPECT_EQ(q.drain().size(), 1u);
  auto f2 = q.push_write(7, payload(2));  // earlier write already executing
  EXPECT_EQ(counters.writes_coalesced.value(), 0u);
  EXPECT_EQ(q.drain().size(), 1u);
}

TEST(RequestQueue, CloseWakesBlockedProducerWithStoppedError) {
  ShardCounters counters;
  RequestQueue q(4, 1, BackpressurePolicy::Block, counters);
  auto f1 = q.push_write(1, payload(1));
  std::atomic<bool> threw{false};
  std::thread producer([&] {
    try {
      auto f2 = q.push_write(2, payload(2));
    } catch (const ServiceStoppedError& e) {
      if (e.shard() == 4u) threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  EXPECT_TRUE(threw.load());
  EXPECT_THROW((void)q.push_read(9), ServiceStoppedError);
  EXPECT_EQ(q.drain().size(), 1u);  // queued work survives close for the final drain
}

TEST(RequestQueue, CloseDoesNotCountAsQueueRejection) {
  ShardCounters counters;
  RequestQueue q(0, 4, BackpressurePolicy::Reject, counters);
  q.close();
  EXPECT_THROW((void)q.push_write(1, payload(1)), ServiceStoppedError);
  EXPECT_EQ(counters.rejected.value(), 0u);  // stopped, not backpressured
}

TEST(RequestQueue, TracksQueueHighWaterMark) {
  ShardCounters counters;
  RequestQueue q(0, 16, BackpressurePolicy::Block, counters);
  std::vector<std::future<std::vector<std::uint8_t>>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(q.push_read(static_cast<std::uint64_t>(i)));
  EXPECT_EQ(counters.queue_high_water.load(), 5u);
  (void)q.drain();
  futures.clear();
  auto f = q.push_read(99);
  EXPECT_EQ(counters.queue_high_water.load(), 5u);  // high-water mark sticks
  (void)q.drain();
}

}  // namespace
}  // namespace spe::runtime
