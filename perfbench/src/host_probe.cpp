#include "host_probe.hpp"

#include <cstdio>
#include <ctime>
#include <functional>
#include <map>
#include <queue>
#include <unordered_map>
#include <utility>

#include "alloc_counter.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

volatile std::uint64_t g_sink = 0;

/// The fixed kernel, about 3 ms on a 4-vCPU Xeon VM: a discrete-event
/// loop over a binary-heap event queue, with hash-map and ordered-map
/// bookkeeping, vector growth and some formatting, so it leans on the
/// allocator, branch predictor and caches the way the simulator does.
/// Deterministic; it must not change, or probe times of different
/// commits stop being comparable.
void Kernel() {
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> pending;
  std::map<std::uint64_t, std::uint32_t> index;
  std::uint64_t x = 99991;
  const auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t id = 0; id < 4096; ++id) queue.emplace(rnd() % 1000, id);
  std::uint64_t sum = 0;
  for (int step = 0; step < 10'000; ++step) {
    const auto [t, id] = queue.top();
    queue.pop();
    std::vector<std::uint32_t>& v = pending[id % 2048];
    v.push_back(static_cast<std::uint32_t>(t));
    if (v.size() > 6) {
      sum += v[rnd() % v.size()];
      pending.erase(id % 2048);
    }
    if (rnd() % 4 == 0) {
      index[rnd() % 100'000] = id;
      if (index.size() > 2000) index.erase(index.begin());
    }
    if (step % 64 == 0) {
      char buf[32];
      sum += static_cast<std::uint64_t>(std::snprintf(
          buf, sizeof buf, "%llu", static_cast<unsigned long long>(t)));
    }
    queue.emplace(t + 1 + rnd() % 500, id);
  }
  g_sink = sum;
}

}  // namespace

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void HostProbe::BeginPass(bool armed) {
  armed_ = armed;
  wall_s_ = 0.0;
  cpu_s_ = 0.0;
  allocs_ = 0;
  sample_wall_s_.clear();
  sample_cpu_s_.clear();
}

void HostProbe::MaybeSample() {
  if (!armed_) return;
  const std::int64_t wall0 = NowNs();
  if (wall0 - last_ns_ < kIntervalNs) return;
  const double cpu0 = CpuSeconds();
  const AllocCount a0 = AllocsNow();
  Kernel();
  const AllocCount a1 = AllocsNow();
  const double cpu = CpuSeconds() - cpu0;
  last_ns_ = NowNs();
  const double wall = static_cast<double>(last_ns_ - wall0) * 1e-9;
  wall_s_ += wall;
  cpu_s_ += cpu;
  allocs_ += a1.calls - a0.calls;
  sample_wall_s_.push_back(wall);
  sample_cpu_s_.push_back(cpu);
}

}  // namespace perfbench
