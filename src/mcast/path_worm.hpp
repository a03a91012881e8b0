// Multi-drop path-based multicasting, MDP-LG (paper Section 3.2.4).
//
// A multi-drop path worm follows a legal up*/down* route; at every
// switch along the route it may replicate to the host ports of local
// destinations and to at most one further switch port. Since no single
// path generally covers an arbitrary destination set, the planner emits
// several worms and schedules them in phases: destinations covered in
// phase i act as secondary sources in phase i+1 (each phase paying the
// full host + NI software overhead — the scheme assumes no NI support).
//
// The exact MDP-LG pseudocode lives in [Kesavan & Panda, PCRCW'97],
// which we reconstruct (DESIGN.md Section 3). Candidate worm routes are
// constrained as the paper states: a multi-drop worm "uses almost
// exactly the same path followed by a unicast worm from a source to one
// of its destinations" — i.e. a shortest legal route to some remaining
// destination switch, not an arbitrary up*/down* snake. Per phase, every
// available sender picks the anchor destination whose unicast route
// covers the most remaining destination switches (dynamic programming
// over the minimal-route DAG); unless it can finish the whole job, a
// worm's coverage is capped at half the remaining switches ("less
// greedy"), keeping worms short and leaving work to parallelise across
// later phases.
#pragma once

#include "mcast/scheme.hpp"

namespace irmc {

/// The maximum-coverage *unicast route* from `start` to some remaining
/// destination switch (exposed for unit tests).
struct BestPathResult {
  std::vector<SwitchId> switches;  ///< visited switches, start first
  std::vector<PortId> ports;       ///< port taken out of switches[i]
  std::vector<SwitchId> covered;   ///< distinct remaining switches visited
};

/// Caller-owned buffers for FindBestCoveragePath: the DP tables of the
/// anchor being evaluated, the choice table of the best anchor so far,
/// and the result. Reused across calls, a search allocates nothing once
/// they have grown; no state carries over from one call to the next.
struct CoveragePathScratch {
  std::vector<int> value;
  std::vector<PortId> choice;
  std::vector<PortId> best_choice;
  BestPathResult path;
};

BestPathResult FindBestCoveragePath(const System& sys, SwitchId start,
                                    const std::vector<char>& remaining,
                                    int coverage_cap);
/// Same search into `scratch`; returns scratch.path.
const BestPathResult& FindBestCoveragePath(const System& sys, SwitchId start,
                                           const std::vector<char>& remaining,
                                           int coverage_cap,
                                           CoveragePathScratch& scratch);

class PathWormMdpLgScheme final : public MulticastScheme {
 public:
  SchemeKind kind() const override { return SchemeKind::kPathWorm; }
  McastPlan Plan(const System& sys, NodeId src,
                 const std::vector<NodeId>& dests, const MessageShape& shape,
                 const HeaderSizing& headers) const override;

  /// Disable the coverage cap (pure greedy) for the ablation bench.
  bool less_greedy = true;

 private:
  /// Reused by every Plan call, so Plan must not run concurrently on one
  /// instance; every caller owns its scheme per trial or per call.
  struct PlanScratch {
    CoveragePathScratch search;
    std::vector<int> dest_begin;  ///< dests grouped by switch (GroupByKey)
    std::vector<int> dest_order;
    std::vector<char> remaining;
    std::vector<NodeId> available;
    std::vector<NodeId> new_senders;
  };
  mutable PlanScratch scratch_;
};

}  // namespace irmc
