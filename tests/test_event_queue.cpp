#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace irmc {
namespace {

constexpr Cycles kW = EventQueue::kWindow;

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 30);
}

TEST(EventQueue, FifoAtEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  while (!q.Empty()) q.RunNext();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1, [&] {
    ++fired;
    q.ScheduleAt(2, [&] { ++fired; });
  });
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.Now(), 2);
}

TEST(EventQueue, SameTimeSelfScheduleRunsThisSweep) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(5, [&] { q.ScheduleAt(5, [&] { ++fired; }); });
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ExecutedCount) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.ScheduleAt(i, [] {});
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueue, OverflowKeepsFifoWithLaterDirectInserts) {
  // Two events at T are queued beyond the window; once Now() brings T
  // inside it, a direct insert at T must still run after both.
  EventQueue q;
  const Cycles t = 3 * kW + 7;
  std::vector<int> order;
  q.ScheduleAt(t, [&] { order.push_back(1); });
  q.ScheduleAt(t, [&] { order.push_back(2); });
  q.ScheduleAt(t - kW + 1, [&] {
    q.ScheduleAt(t, [&] { order.push_back(3); });
  });
  EXPECT_EQ(q.PeekTime(), t - kW + 1);
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), t);
}

TEST(EventQueueAction, FitsTheLargestProductionCapture) {
  // Fabric::Pick captures this, a channel id and a whole Tx (two
  // shared_ptrs, a ready time and an arbitration port).
  struct TxLike {
    std::shared_ptr<int> pkt;
    Cycles ready;
    std::shared_ptr<int> buf;
    int arb_port;
  };
  auto pick = [self = static_cast<void*>(nullptr), channel = 0,
               tx = TxLike{}] {
    (void)self;
    (void)channel;
    (void)tx;
  };
  static_assert(EventQueue::Action::kFits<decltype(pick)>);
  auto too_big = [bytes = std::array<char, EventQueue::Action::kCapacity + 1>{}] {
    (void)bytes;
  };
  static_assert(!EventQueue::Action::kFits<decltype(too_big)>);
}

TEST(EventQueueAction, MovesLeaveTheSourceEmpty) {
  int runs = 0;
  EventQueue::Action a = [&runs] { ++runs; };
  EXPECT_TRUE(a);
  EventQueue::Action b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): checking moved-from
  b();
  EXPECT_EQ(runs, 1);
  a = std::move(b);
  a();
  EXPECT_EQ(runs, 2);
}

TEST(EventQueueAction, MoveOnlyCaptureRunsOnce) {
  EventQueue q;
  int sum = 0;
  int runs = 0;
  q.ScheduleAt(3, [&sum, &runs, p = std::make_unique<int>(7)] {
    sum += *p;
    ++runs;
  });
  // Grow the slab past one chunk and recycle slots around the capture.
  for (int i = 0; i < 300; ++i) q.ScheduleAt(i % 5, [] {});
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(sum, 7);
  EXPECT_EQ(runs, 1);
}

TEST(EventQueueAction, RanCaptureIsReleasedAfterItsEvent) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  q.ScheduleAt(1, [token] {});
  EXPECT_EQ(token.use_count(), 2);
  q.RunNext();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueAction, PendingCapturesAreReleasedWithTheQueue) {
  auto token = std::make_shared<int>(0);
  {
    EventQueue q;
    q.ScheduleAt(1, [token] {});
    q.ScheduleAt(5, [token] {});            // in the ring
    q.ScheduleAt(5 + 3 * kW, [token] {});   // in the overflow heap
    q.RunNext();
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// --- Differential check against a (when, seq) priority-queue model. ---

/// The reference: the queue this kernel replaced, keyed (when, seq).
class ReferenceQueue {
 public:
  void ScheduleAt(Cycles when, std::uint64_t id) {
    heap_.push(Entry{when, seq_++, id});
  }
  bool Empty() const { return heap_.empty(); }
  Cycles PeekTime() const { return heap_.top().when; }
  std::uint64_t PopNext() {
    const Entry e = heap_.top();
    heap_.pop();
    now_ = e.when;
    ++executed_;
    return e.id;
  }
  Cycles Now() const { return now_; }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    Cycles when;
    std::uint64_t seq;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  Cycles now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
};

/// Delays from 0 to four windows, weighted toward same-time and short
/// hops, with the window edges drawn on purpose.
Cycles DrawDelay(Rng& rng) {
  const auto pick = rng.NextBelow(10);
  if (pick < 2) return 0;
  if (pick < 5) return static_cast<Cycles>(1 + rng.NextBelow(16));
  if (pick < 7) return static_cast<Cycles>(1 + rng.NextBelow(kW - 1));
  if (pick < 8) return kW - 1 + static_cast<Cycles>(rng.NextBelow(3));
  return kW + static_cast<Cycles>(rng.NextBelow(3 * kW));
}

/// Children an event schedules when it runs: a pure function of its id,
/// so both queues see the same schedule exactly when they dispatch in
/// the same order. Fewer than one child on average keeps the population
/// bounded.
std::vector<Cycles> ChildDelays(std::uint64_t id) {
  Rng rng(id * 0x9E3779B97F4A7C15ULL + 1);
  const auto roll = rng.NextBelow(20);
  const int n = roll < 10 ? 0 : roll < 17 ? 1 : 2;
  std::vector<Cycles> out;
  for (int i = 0; i < n; ++i) out.push_back(DrawDelay(rng));
  return out;
}

/// Runs the same random schedule through `Q` (EventQueue or Engine) and
/// the reference; ids are handed out in scheduling order on each side.
template <class Q>
struct Differential {
  Q q;
  ReferenceQueue ref;
  std::vector<std::uint64_t> got;
  std::vector<std::uint64_t> want;
  std::uint64_t next_got = 0;
  std::uint64_t next_want = 0;

  void Schedule(Cycles delay) {
    ScheduleGot(q.Now() + delay);
    ScheduleWant(ref.Now() + delay);
  }
  void ScheduleGot(Cycles when) {
    const std::uint64_t id = next_got++;
    q.ScheduleAt(when, [this, id] {
      got.push_back(id);
      for (Cycles d : ChildDelays(id)) ScheduleGot(q.Now() + d);
    });
  }
  void ScheduleWant(Cycles when) { ref.ScheduleAt(when, next_want++); }
  void StepWant() {
    const std::uint64_t id = ref.PopNext();
    want.push_back(id);
    for (Cycles d : ChildDelays(id)) ScheduleWant(ref.Now() + d);
  }
  /// Reference run-until: events at exactly `deadline` still run.
  bool RunWantUntil(Cycles deadline) {
    while (!ref.Empty() && ref.PeekTime() <= deadline) StepWant();
    return ref.Empty();
  }
};

std::size_t FirstMismatch(const std::vector<std::uint64_t>& a,
                          const std::vector<std::uint64_t>& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

class EventQueueDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueDifferential, RunNextMatchesReferenceOrder) {
  Differential<EventQueue> d;
  Rng rng(GetParam());
  for (int op = 0; op < 120'000; ++op) {
    if (d.ref.Empty() || rng.NextBelow(100) < 45) {
      d.Schedule(DrawDelay(rng));
    } else {
      ASSERT_EQ(d.q.PeekTime(), d.ref.PeekTime()) << "op " << op;
      d.q.RunNext();
      d.StepWant();
    }
    ASSERT_EQ(d.q.Empty(), d.ref.Empty()) << "op " << op;
    ASSERT_EQ(d.q.Now(), d.ref.Now()) << "op " << op;
    ASSERT_EQ(d.q.executed(), d.ref.executed()) << "op " << op;
    ASSERT_EQ(d.got.size(), d.want.size()) << "op " << op;
  }
  while (!d.ref.Empty()) {
    ASSERT_EQ(d.q.PeekTime(), d.ref.PeekTime());
    d.q.RunNext();
    d.StepWant();
  }
  EXPECT_TRUE(d.q.Empty());
  EXPECT_EQ(d.q.Now(), d.ref.Now());
  EXPECT_EQ(d.q.executed(), d.ref.executed());
  const std::size_t at = FirstMismatch(d.got, d.want);
  EXPECT_EQ(at, d.want.size()) << "dispatch order diverges at event " << at;
  EXPECT_EQ(d.got.size(), d.want.size());
}

TEST_P(EventQueueDifferential, EngineRunUntilMatchesReference) {
  // Deadlines are drawn like delays, so they land on the current time,
  // mid-window, on the window edges and among overflow events.
  Differential<Engine> d;
  Rng rng(GetParam() ^ 0xD1FFULL);
  for (int op = 0; op < 120'000; ++op) {
    if (d.ref.Empty() || rng.NextBelow(100) < 55) {
      d.Schedule(DrawDelay(rng));
    } else {
      const Cycles deadline = d.ref.Now() + DrawDelay(rng);
      const bool drained = d.q.RunUntil(deadline);
      ASSERT_EQ(drained, d.RunWantUntil(deadline)) << "op " << op;
    }
    ASSERT_EQ(d.q.Idle(), d.ref.Empty()) << "op " << op;
    ASSERT_EQ(d.q.Now(), d.ref.Now()) << "op " << op;
    ASSERT_EQ(d.q.events_executed(), d.ref.executed()) << "op " << op;
    ASSERT_EQ(d.got.size(), d.want.size()) << "op " << op;
  }
  d.q.RunToQuiescence();
  d.RunWantUntil(std::numeric_limits<Cycles>::max());
  EXPECT_EQ(d.q.Now(), d.ref.Now());
  EXPECT_EQ(d.q.events_executed(), d.ref.executed());
  const std::size_t at = FirstMismatch(d.got, d.want);
  EXPECT_EQ(at, d.want.size()) << "dispatch order diverges at event " << at;
  EXPECT_EQ(d.got.size(), d.want.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential,
                         ::testing::Values(1u, 2u, 3u));

TEST(Engine, RunToQuiescenceReturnsFinalTime) {
  Engine e;
  e.ScheduleAfter(100, [] {});
  EXPECT_EQ(e.RunToQuiescence(), 100);
  EXPECT_TRUE(e.Idle());
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.ScheduleAfter(10, [&] { ++fired; });
  e.ScheduleAfter(20, [&] { ++fired; });
  EXPECT_FALSE(e.RunUntil(15));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.RunUntil(25));
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilInclusiveOfDeadline) {
  Engine e;
  int fired = 0;
  e.ScheduleAfter(15, [&] { ++fired; });
  EXPECT_TRUE(e.RunUntil(15));
  EXPECT_EQ(fired, 1);
}

TEST(Engine, ScheduleAfterZeroRunsAtSameTime) {
  Engine e;
  Cycles seen = -1;
  e.ScheduleAfter(10, [&] { e.ScheduleAfter(0, [&] { seen = e.Now(); }); });
  e.RunToQuiescence();
  EXPECT_EQ(seen, 10);
}

}  // namespace
}  // namespace irmc
