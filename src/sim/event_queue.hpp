// Deterministic discrete-event queue.
//
// Events at equal timestamps fire in insertion order, so a simulation is
// bit-reproducible from its seed regardless of queue internals.
//
// The queue is the simulator's innermost loop (one dispatch per link
// hop, host overhead and flit-engine cycle), so it is built to allocate
// nothing in steady state:
//
//  * An Action stores its capture inline (no heap fallback; a capture
//    that does not fit fails to compile).
//  * Pending actions live in a slab of fixed-size chunks, so growing it
//    never relocates a pending capture, and slots are recycled through a
//    free list. RunNext moves the action out and frees its slot before
//    running it, so the events the action schedules can reuse the slot.
//  * Event times are small integer cycles, so the queue is a calendar:
//    a ring of kWindow per-cycle buckets covering [Now(), Now() +
//    kWindow). Each bucket is an intrusive FIFO list threaded through
//    the slots, and a two-level bitmap finds the next non-empty bucket
//    in O(1). Events beyond the window wait in a small (when, seq)
//    overflow heap and move into their buckets, in (when, seq) order,
//    as soon as Now() advances far enough. No direct insert can reach a
//    bucket before that, so the FIFO tie-break is exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"

namespace irmc {

class EventQueue {
 public:
  /// Move-only callable holding its capture inline.
  class Action {
   public:
    /// Inline capture bytes. The largest production capture is
    /// Fabric::Pick's slot-acquire lambda (this, channel id and a Tx).
    static constexpr std::size_t kCapacity = 64;

    /// Instantiated with the offending type, so a failed check below
    /// names the capture in the compiler's diagnostic.
    template <class Fn>
    static constexpr bool kFits = sizeof(Fn) <= kCapacity &&
                                  alignof(Fn) <= alignof(void*) &&
                                  std::is_nothrow_move_constructible_v<Fn>;

    Action() = default;

    template <class F, class Fn = std::decay_t<F>,
              class = std::enable_if_t<!std::is_same_v<Fn, Action> &&
                                       std::is_invocable_r_v<void, Fn&>>>
    Action(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert
      static_assert(kFits<Fn>,
                    "EventQueue::Action: capture exceeds kCapacity bytes, is "
                    "over-aligned, or may throw on move");
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kOpsFor<Fn>;
    }

    Action(Action&& other) noexcept { Take(other); }
    Action& operator=(Action&& other) noexcept {
      if (this != &other) {
        Reset();
        Take(other);
      }
      return *this;
    }
    Action(const Action&) = delete;
    Action& operator=(const Action&) = delete;
    ~Action() { Reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void operator()() {
      IRMC_EXPECT(ops_ != nullptr);
      ops_->invoke(buf_);
    }

   private:
    /// Null `relocate`/`destroy` mean the capture is trivially
    /// copyable/destructible: moving it is a byte copy, dropping it free.
    struct Ops {
      void (*invoke)(void*);
      void (*relocate)(void* dst, void* src);
      void (*destroy)(void*);
    };
    template <class Fn>
    static constexpr Ops kOpsFor{
        [](void* p) { (*static_cast<Fn*>(p))(); },
        std::is_trivially_copyable_v<Fn>
            ? nullptr
            : +[](void* dst, void* src) {
                Fn* from = static_cast<Fn*>(src);
                ::new (dst) Fn(std::move(*from));
                from->~Fn();
              },
        std::is_trivially_destructible_v<Fn>
            ? nullptr
            : +[](void* p) { static_cast<Fn*>(p)->~Fn(); }};

    void Take(Action& other) noexcept {
      ops_ = std::exchange(other.ops_, nullptr);
      if (ops_ == nullptr) return;
      if (ops_->relocate != nullptr)
        ops_->relocate(buf_, other.buf_);
      else
        std::memcpy(buf_, other.buf_, kCapacity);
    }
    void Reset() noexcept {
      if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }

    alignas(void*) unsigned char buf_[kCapacity];
    const Ops* ops_ = nullptr;
  };

  /// Ring span in cycles; a power of two, one bitmap word per 64 cycles
  /// and one summary bit per word.
  static constexpr Cycles kWindow = 4096;

  EventQueue();

  /// Schedule `action` at absolute time `when` (>= current Now()).
  void ScheduleAt(Cycles when, Action&& action);

  /// True when no events remain.
  bool Empty() const { return in_ring_ == 0 && overflow_.empty(); }

  /// Timestamp of the next event. Requires !Empty().
  Cycles PeekTime() const;

  /// Pop and run the next event, advancing Now() to its timestamp.
  void RunNext();

  /// Current simulated time (timestamp of the last event run).
  Cycles Now() const { return now_; }

  /// Number of events executed so far (for perf benches).
  std::uint64_t executed() const { return executed_; }

 private:
  using SlotId = std::uint32_t;
  static constexpr SlotId kNil = ~SlotId{0};
  static constexpr std::size_t kWords = static_cast<std::size_t>(kWindow) / 64;
  static constexpr std::size_t kChunkSlots = 256;
  static_assert((kWindow & (kWindow - 1)) == 0 && kWords == 64,
                "one 64-bit summary word covers the bucket bitmap");

  struct Slot {
    Action action;
    SlotId next = kNil;  ///< next in its bucket, or in the free list
  };
  /// Head and tail slot of a bucket's FIFO list. Only meaningful while
  /// the bucket's bitmap bit is set, so the ring needs no initialising.
  struct Bucket {
    SlotId head;
    SlotId tail;
  };
  struct Overflow {
    Cycles when;
    std::uint64_t seq;
    SlotId slot;
  };

  static std::size_t BucketOf(Cycles when) {
    return static_cast<std::size_t>(when & (kWindow - 1));
  }
  Slot& SlotAt(SlotId id) {
    return chunks_[id / kChunkSlots][id % kChunkSlots];
  }
  SlotId NewSlot(Action&& action);
  void Append(Cycles when, SlotId slot);
  /// Bucket of the earliest ring event. Requires a non-empty ring.
  std::size_t NextBucket() const;
  /// Sets now_ to `when` and pulls overflow events inside the new
  /// window into their buckets.
  void Advance(Cycles when);

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  SlotId num_slots_ = 0;
  SlotId free_ = kNil;
  std::unique_ptr<Bucket[]> ring_;
  std::uint64_t words_[kWords] = {};  ///< bit b: bucket 64*word + b non-empty
  std::uint64_t summary_ = 0;         ///< bit w: words_[w] != 0
  std::vector<Overflow> overflow_;    ///< min-heap on (when, seq)
  std::size_t in_ring_ = 0;
  Cycles now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace irmc
