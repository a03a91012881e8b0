// Compressed-sparse-row storage for the topology/routing core.
//
// Every per-switch / per-(switch,port) / per-(dest,here) variable-length
// list in the hot routing path used to be a std::vector<std::vector<T>>:
// one heap allocation per row and a pointer chase per lookup. A CsrArray
// keeps all rows in one contiguous payload with an offsets index, so a
// row lookup is two loads from arrays that stay resident in cache, and
// an entire table is two allocations no matter how many rows it has.
// Rows are immutable after construction — matching the System contract
// (docs/architecture.md §CSR layout).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/expect.hpp"

namespace irmc {

template <typename T>
class CsrArray {
 public:
  CsrArray() = default;

  /// Adopts prebuilt offsets (monotone, offsets.size() == rows + 1,
  /// offsets.back() == payload.size()) and payload. For fills that are
  /// not row-ordered (e.g. scattering children under parents); row-order
  /// producers use CsrBuilder instead.
  CsrArray(std::vector<std::uint32_t> offsets, std::vector<T> payload)
      : offsets_(std::move(offsets)), payload_(std::move(payload)) {
    IRMC_EXPECT(!offsets_.empty());
    IRMC_EXPECT(offsets_.front() == 0);
    IRMC_EXPECT(offsets_.back() == payload_.size());
  }

  std::size_t rows() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Total payload elements across all rows.
  std::size_t size() const { return payload_.size(); }

  std::span<const T> Row(std::size_t row) const {
    IRMC_EXPECT(row + 1 < offsets_.size());
    return {payload_.data() + offsets_[row],
            static_cast<std::size_t>(offsets_[row + 1] - offsets_[row])};
  }

 private:
  std::vector<std::uint32_t> offsets_;  ///< rows + 1, monotone
  std::vector<T> payload_;
};

/// Builds a CsrArray row by row: BeginRow() once per row (in row order),
/// Append() for that row's elements, Finish() exactly once.
template <typename T>
class CsrBuilder {
 public:
  /// `expected_rows`/`expected_payload` pre-reserve so a build with a
  /// known shape never regrows.
  explicit CsrBuilder(std::size_t expected_rows = 0,
                      std::size_t expected_payload = 0) {
    offsets_.reserve(expected_rows + 1);
    payload_.reserve(expected_payload);
    offsets_.push_back(0);
  }

  void BeginRow() {
    offsets_.push_back(static_cast<std::uint32_t>(payload_.size()));
  }

  void Append(T v) {
    payload_.push_back(v);
    offsets_.back() = static_cast<std::uint32_t>(payload_.size());
  }

  CsrArray<T> Finish() {
    return CsrArray<T>(std::move(offsets_), std::move(payload_));
  }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<T> payload_;
};

/// Stable counting sort of items 0..items-1 into `rows` rows by
/// key(item), into caller-owned buffers that keep their capacity: row r
/// is order[begin[r] .. begin[r + 1]), items in ascending order. For
/// per-call groupings (planners, the executor) that a CsrArray's
/// immutable storage would re-allocate every time.
template <typename KeyFn>
void GroupByKey(std::size_t rows, std::size_t items, KeyFn&& key,
                std::vector<int>& begin, std::vector<int>& order) {
  begin.assign(rows + 1, 0);
  for (std::size_t i = 0; i < items; ++i) {
    const auto r = static_cast<std::size_t>(key(i));
    IRMC_EXPECT(r < rows);
    ++begin[r + 1];
  }
  for (std::size_t r = 1; r <= rows; ++r) begin[r] += begin[r - 1];
  // begin[r] serves as row r's fill cursor and ends at begin[r + 1];
  // shift the cursors back afterwards.
  order.resize(items);
  for (std::size_t i = 0; i < items; ++i)
    order[static_cast<std::size_t>(
        begin[static_cast<std::size_t>(key(i))]++)] = static_cast<int>(i);
  for (std::size_t r = rows; r > 0; --r) begin[r] = begin[r - 1];
  begin[0] = 0;
}

}  // namespace irmc
