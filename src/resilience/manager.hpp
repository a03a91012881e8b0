// Runtime fault injection + Autonet reconfiguration (docs/resilience.md).
//
// The ResilienceManager owns a run's fault timeline. At construction it
// assembles the schedule (explicit ResilienceParams::schedule plus
// mtbf-drawn faults), validates that it is cumulatively survivable, and
// precomputes the degraded graph after every fault prefix. Each fault
// then plays out on the live engines:
//
//   cycle t                 FailLink(sw, port) — worms crossing the link
//                           truncate, the NI layer gets drop reports;
//                           a kFault trace event and resilience.faults
//                           count the injection
//   t + detection_delay     the fault is "detected"; reconfiguration
//   + reconfig_delay        completes: a fresh System (BFS tree,
//                           up*/down*, routing tables, reachability)
//                           built on the surviving graph swaps
//                           atomically into the engine and the driver
//
// Overlapping faults coalesce: only the latest pending rebuild swaps in
// (it is built on the graph with *all* faults so far applied), matching
// Autonet's restart-on-new-failure behaviour. The window from the first
// un-reconfigured fault to the final swap is the degraded window;
// deliveries inside it count as resilience.degraded_deliveries.
//
// All scheduling is per-trial (the manager lives inside one trial's
// McastDriver), so the determinism contract holds: byte-identical
// metrics/trace exports for any IRMC_THREADS.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "metrics/metrics.hpp"
#include "network/network_model.hpp"
#include "resilience/fault_schedule.hpp"
#include "sim/engine.hpp"
#include "topology/system.hpp"
#include "trace/tracer.hpp"

namespace irmc {

class ResilienceManager {
 public:
  /// Called with the freshly built System right after it swaps into the
  /// network engine, so the driver can re-point its own routing state.
  using SwapFn = std::function<void(const System&)>;

  /// Assembles + validates the schedule from `cfg.resilience` (aborts
  /// on an unsurvivable schedule) and schedules every fault on
  /// `engine`. `base` must outlive the manager; `network` is the live
  /// engine the faults and swaps apply to.
  ResilienceManager(Engine& engine, NetworkModel& network, const System& base,
                    const SimConfig& cfg, Tracer* tracer,
                    MetricsRegistry& metrics, SwapFn on_swap);

  ResilienceManager(const ResilienceManager&) = delete;
  ResilienceManager& operator=(const ResilienceManager&) = delete;

  /// True while at least one injected fault has not yet been
  /// reconfigured around (the degraded window).
  bool degraded() const { return pending_swaps_ > 0; }

  /// Earliest cycle (>= now) at which a repair injection can be planned
  /// on post-reconfiguration routing state: past the last scheduled
  /// swap, or `now` when nothing is pending. Repairs injected earlier
  /// would be planned on the broken tables and likely drop again.
  Cycles SafeRepairTime(Cycles now) const;

  /// The routing state currently live in the engine (the base System
  /// until the first swap).
  const System& current() const { return *current_; }

  const std::vector<TimedFault>& schedule() const { return schedule_; }
  int faults_injected() const { return faults_injected_; }
  int reconfigs_applied() const { return reconfigs_applied_; }

 private:
  void InjectFault(int index);
  void ApplySwap(int index);

  Engine& engine_;
  NetworkModel& network_;
  const SimConfig& cfg_;
  Tracer* tracer_;
  Counter& m_faults_;           ///< resilience.faults
  Counter& m_reconfigs_;        ///< resilience.reconfigs
  Counter& m_reconfig_cycles_;  ///< resilience.reconfig_cycles
  SwapFn on_swap_;

  std::vector<TimedFault> schedule_;  ///< time-sorted, survivable
  std::vector<Graph> graphs_;         ///< graph after faults 0..i
  /// Rebuilt Systems, kept alive for the run (engines hold pointers).
  /// Shared with SystemBuilder's cache: parallel trials hitting the
  /// same degraded graph (engine cross-checks, repeated seeds) reuse
  /// one rebuild instead of re-deriving all tables.
  std::vector<std::shared_ptr<const System>> rebuilt_;
  const System* current_;

  int pending_swaps_ = 0;
  int last_fault_index_ = -1;  ///< highest fault injected so far
  Cycles last_swap_at_ = 0;    ///< latest scheduled swap completion
  int faults_injected_ = 0;
  int reconfigs_applied_ = 0;
};

}  // namespace irmc
