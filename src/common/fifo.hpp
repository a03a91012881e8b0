// Ring-buffer FIFO that allocates nothing until its first push.
//
// std::deque allocates its map and a first block at default
// construction, so a model that keeps one queue per channel or per
// buffer pool pays hundreds of allocations per instance before any
// traffic. Fifo starts empty-handed, grows by doubling, and keeps its
// storage when drained. Besides push_back/pop_front it supports indexed
// access from the front and erase at an index (arbitration grants from
// the middle of a queue).
//
// T must be default-constructible and nothrow move-assignable; a popped
// or erased slot is reset to T{} so it holds no resources.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/expect.hpp"

namespace irmc {

template <class T>
class Fifo {
  static_assert(std::is_nothrow_move_assignable_v<T>);

 public:
  Fifo() = default;
  Fifo(Fifo&& o) noexcept
      : buf_(std::move(o.buf_)),
        cap_(std::exchange(o.cap_, 0)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)) {}
  Fifo& operator=(Fifo&& o) noexcept {
    if (this != &o) {
      buf_ = std::move(o.buf_);
      cap_ = std::exchange(o.cap_, 0);
      head_ = std::exchange(o.head_, 0);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) {
    IRMC_EXPECT(i < size_);
    return buf_[Slot(i)];
  }
  const T& operator[](std::size_t i) const {
    IRMC_EXPECT(i < size_);
    return buf_[Slot(i)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  template <class... Args>
  void emplace_back(Args&&... args) {
    if (size_ == cap_) Grow();
    buf_[Slot(size_)] = T(std::forward<Args>(args)...);
    ++size_;
  }
  void push_back(T v) { emplace_back(std::move(v)); }

  void pop_front() {
    IRMC_EXPECT(size_ > 0);
    buf_[head_] = T{};
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Removes the element at index `i`, keeping the order of the rest.
  void erase(std::size_t i) {
    IRMC_EXPECT(i < size_);
    if (i == 0) {
      pop_front();
      return;
    }
    for (std::size_t j = i; j + 1 < size_; ++j)
      buf_[Slot(j)] = std::move(buf_[Slot(j + 1)]);
    buf_[Slot(size_ - 1)] = T{};
    --size_;
  }

 private:
  std::size_t Slot(std::size_t i) const { return (head_ + i) & (cap_ - 1); }

  void Grow() {
    const std::size_t cap = cap_ == 0 ? 4 : cap_ * 2;
    std::unique_ptr<T[]> next(new T[cap]);
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(buf_[Slot(i)]);
    buf_ = std::move(next);
    cap_ = cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t cap_ = 0;  ///< zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace irmc
