#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace irmc {
namespace {

/// std heap comparator: a max-heap under "later" is a min-heap on
/// (when, seq).
struct Later {
  template <class T>
  bool operator()(const T& a, const T& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

}  // namespace

EventQueue::EventQueue()
    : ring_(std::make_unique_for_overwrite<Bucket[]>(
          static_cast<std::size_t>(kWindow))) {}

EventQueue::SlotId EventQueue::NewSlot(Action&& action) {
  SlotId id = free_;
  if (id != kNil) {
    free_ = SlotAt(id).next;
  } else {
    IRMC_EXPECT(num_slots_ < kNil);
    if (num_slots_ % kChunkSlots == 0)
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    id = num_slots_++;
  }
  Slot& slot = SlotAt(id);
  slot.next = kNil;
  slot.action = std::move(action);
  return id;
}

void EventQueue::Append(Cycles when, SlotId slot) {
  const std::size_t b = BucketOf(when);
  const std::size_t w = b / 64;
  const std::uint64_t bit = std::uint64_t{1} << (b % 64);
  Bucket& bucket = ring_[b];
  if ((words_[w] & bit) == 0) {
    words_[w] |= bit;
    summary_ |= std::uint64_t{1} << w;
    bucket.head = slot;
  } else {
    SlotAt(bucket.tail).next = slot;
  }
  bucket.tail = slot;
  ++in_ring_;
}

void EventQueue::ScheduleAt(Cycles when, Action&& action) {
  IRMC_EXPECT(when >= now_);
  IRMC_EXPECT(static_cast<bool>(action));
  const SlotId slot = NewSlot(std::move(action));
  if (when - now_ < kWindow) {
    Append(when, slot);
  } else {
    overflow_.push_back(Overflow{when, next_seq_++, slot});
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
}

std::size_t EventQueue::NextBucket() const {
  // Ring events lie in [now_, now_ + kWindow), so the first set bit at
  // or after now_'s bucket, wrapping around, is the earliest.
  const std::size_t start = BucketOf(now_);
  const std::size_t w = start / 64;
  const std::uint64_t here = words_[w] & (~std::uint64_t{0} << (start % 64));
  if (here != 0) return w * 64 + static_cast<std::size_t>(std::countr_zero(here));
  // Words after w; failing that, wrap to words 0..w (word w's bits below
  // `start` are the far end of the window).
  std::uint64_t later = summary_ & (~std::uint64_t{1} << w);
  if (later == 0) later = summary_;
  IRMC_ENSURE(later != 0);
  const auto w2 = static_cast<std::size_t>(std::countr_zero(later));
  return w2 * 64 + static_cast<std::size_t>(std::countr_zero(words_[w2]));
}

Cycles EventQueue::PeekTime() const {
  IRMC_EXPECT(!Empty());
  if (in_ring_ == 0) return overflow_.front().when;
  const auto offset =
      static_cast<Cycles>((NextBucket() - BucketOf(now_)) & (kWindow - 1));
  return now_ + offset;
}

void EventQueue::Advance(Cycles when) {
  IRMC_ENSURE(when >= now_);
  now_ = when;
  while (!overflow_.empty() && overflow_.front().when - now_ < kWindow) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    const Overflow next = overflow_.back();
    overflow_.pop_back();
    Append(next.when, next.slot);
  }
}

void EventQueue::RunNext() {
  const Cycles when = PeekTime();
  if (when != now_) Advance(when);
  // Advance appends only events later than `when`, unless the ring was
  // empty and the overflow head itself is due at `when`.
  const std::size_t b = BucketOf(when);
  Bucket& bucket = ring_[b];
  const SlotId id = bucket.head;
  Slot& slot = SlotAt(id);
  if (id == bucket.tail) {
    const std::size_t w = b / 64;
    words_[w] &= ~(std::uint64_t{1} << (b % 64));
    if (words_[w] == 0) summary_ &= ~(std::uint64_t{1} << w);
  } else {
    bucket.head = slot.next;
  }
  --in_ring_;
  Action action = std::move(slot.action);
  slot.next = free_;
  free_ = id;
  ++executed_;
  action();
}

}  // namespace irmc
