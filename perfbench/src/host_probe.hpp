// Host-speed probe.
//
// On a shared host, other tenants slow the simulator down by up to about
// 40% for minutes at a time (a busy sibling hyperthread, a thrashed
// cache), and process CPU time slows down with it. The probe measures
// how fast the host runs this kind of code right now: it times a fixed
// kernel, a small event-queue simulation over standard containers that
// is compiled into the benchmark and so is the same on every commit.
// It runs between the sweep points of untraced passes, at most once per
// kIntervalNs, so its samples spread over the whole run. The pass
// subtracts the probe's own time and allocations, and run.py scales the
// workload's times by the run's median probe time (see README.md).
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Process CPU time (user + sys) in seconds.
double CpuSeconds();

class HostProbe {
 public:
  static constexpr std::int64_t kIntervalNs = 100'000'000;

  /// Starts a pass: clears the pass totals and samples; `armed` says
  /// whether MaybeSample runs the kernel in this pass.
  void BeginPass(bool armed);

  /// Runs the kernel once if armed and kIntervalNs have passed since
  /// the last sample. Call it between sweep points.
  void MaybeSample();

  /// Wall seconds, CPU seconds and heap allocations the kernel took in
  /// this pass.
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }
  std::uint64_t allocs() const { return allocs_; }

  /// Per-sample wall and CPU seconds of this pass.
  const std::vector<double>& sample_wall_s() const { return sample_wall_s_; }
  const std::vector<double>& sample_cpu_s() const { return sample_cpu_s_; }

 private:
  bool armed_ = false;
  std::int64_t last_ns_ = 0;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
  std::uint64_t allocs_ = 0;
  std::vector<double> sample_wall_s_;
  std::vector<double> sample_cpu_s_;
};

}  // namespace perfbench
