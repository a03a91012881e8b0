// Process-wide heap-allocation counter.
//
// alloc_counter.cpp replaces the global operator new/delete family for
// every binary it is linked into, so each allocation the library makes
// (std::function captures, shared packets, map nodes, vector growth) is
// counted without touching the library. Reading the counter before and
// after a call gives that call's allocations; the count is deterministic
// for a deterministic program, which is what lets allocs/op be compared
// exactly between commits.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t calls = 0;  ///< operator new calls (all forms)
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
};

/// Totals since process start.
AllocCount AllocsNow();

}  // namespace perfbench
