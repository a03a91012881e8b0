#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

namespace irmc {
namespace {

TEST(TimelineResource, IdleStartsImmediately) {
  TimelineResource r;
  EXPECT_EQ(r.Reserve(100, 50), 100);
  EXPECT_EQ(r.free_at(), 150);
}

TEST(TimelineResource, BackToBackSerializes) {
  TimelineResource r;
  EXPECT_EQ(r.Reserve(0, 10), 0);
  EXPECT_EQ(r.Reserve(0, 10), 10);
  EXPECT_EQ(r.Reserve(5, 10), 20);
}

TEST(TimelineResource, GapWhenEarliestLate) {
  TimelineResource r;
  r.Reserve(0, 10);
  EXPECT_EQ(r.Reserve(100, 10), 100);  // idle gap allowed
}

TEST(TimelineResource, ZeroHold) {
  TimelineResource r;
  EXPECT_EQ(r.Reserve(7, 0), 7);
  EXPECT_EQ(r.free_at(), 7);
}

TEST(TimelineResource, BusyTotalAccumulates) {
  TimelineResource r;
  r.Reserve(0, 10);
  r.Reserve(50, 20);
  EXPECT_EQ(r.busy_total(), 30);
}

TEST(CountingResource, GrantsImmediatelyWhenFree) {
  Engine e;
  CountingResource pool(2);
  int grants = 0;
  pool.Acquire(e, [&] { ++grants; });
  pool.Acquire(e, [&] { ++grants; });
  e.RunToQuiescence();
  EXPECT_EQ(grants, 2);
  EXPECT_EQ(pool.available(), 0);
}

TEST(CountingResource, QueuesWhenExhausted) {
  Engine e;
  CountingResource pool(1);
  std::vector<int> order;
  pool.Acquire(e, [&] { order.push_back(1); });
  pool.Acquire(e, [&] { order.push_back(2); });
  pool.Acquire(e, [&] { order.push_back(3); });
  e.RunToQuiescence();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(pool.queue_length(), 2);

  pool.Release(e);
  e.RunToQuiescence();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  pool.Release(e);
  e.RunToQuiescence();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(pool.queue_length(), 0);
}

TEST(CountingResource, ReleaseWithoutWaitersRestoresSlot) {
  Engine e;
  CountingResource pool(1);
  pool.Acquire(e, [] {});
  e.RunToQuiescence();
  EXPECT_EQ(pool.available(), 0);
  pool.Release(e);
  EXPECT_EQ(pool.available(), 1);
}

TEST(CountingResource, MaxQueueTracksHighWater) {
  Engine e;
  CountingResource pool(1);
  pool.Acquire(e, [] {});
  pool.Acquire(e, [] {});
  pool.Acquire(e, [] {});
  e.RunToQuiescence();
  EXPECT_EQ(pool.max_queue(), 2);
}

TEST(CountingResource, GrantsMoveOnlyWaitersInFifoOrder) {
  Engine e;
  CountingResource pool(1);
  std::vector<int> order;
  for (int i = 1; i <= 4; ++i)
    pool.Acquire(e, [&order, v = std::make_unique<int>(i)] {
      order.push_back(*v);
    });
  e.RunToQuiescence();
  EXPECT_EQ(order, (std::vector<int>{1}));
  for (int i = 0; i < 3; ++i) {
    pool.Release(e);
    e.RunToQuiescence();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(pool.max_queue(), 3);
}

TEST(CountingResource, MovesButDoesNotCopy) {
  // Fabric keeps its input-slot pools in a std::vector, whose growth
  // must move the waiter queue.
  static_assert(!std::is_copy_constructible_v<CountingResource>);
  static_assert(std::is_move_constructible_v<CountingResource>);
  Engine e;
  std::vector<CountingResource> pools;
  pools.emplace_back(1);
  int grants = 0;
  pools[0].Acquire(e, [&grants] { ++grants; });
  pools[0].Acquire(e, [&grants] { ++grants; });
  pools.reserve(16);
  pools[0].Release(e);
  e.RunToQuiescence();
  EXPECT_EQ(grants, 2);
}

}  // namespace
}  // namespace irmc
