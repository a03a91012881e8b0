#include "mcast/path_worm.hpp"

#include <algorithm>

#include "common/csr.hpp"
#include "common/expect.hpp"

namespace irmc {
namespace {

/// DP over the shortest-legal-route DAG toward `target`. A multi-drop
/// worm "uses almost exactly the same path followed by a unicast worm
/// from a source to one of its destinations" (paper Section 3.2.4), so
/// candidate paths are exactly the shortest up*/down* routes to some
/// remaining destination switch, and we count the remaining switches
/// each such route passes through.
///
/// State (switch, phase); edges are the routing table's minimal-route
/// candidates, so the graph is acyclic (remaining distance strictly
/// decreases). Value = weight of switches on the route from the state's
/// switch to the target, inclusive of both.
class UnicastPathDp {
 public:
  /// Tables live in caller-owned `value`/`choice`, reset here.
  UnicastPathDp(const System& sys, SwitchId target,
                const std::vector<char>& remaining, std::vector<int>& value,
                std::vector<PortId>& choice)
      : sys_(sys),
        target_(target),
        remaining_(remaining),
        value_(value),
        choice_(choice) {
    const auto n = static_cast<std::size_t>(sys.num_switches());
    value_.assign(2 * n, -1);
    choice_.assign(2 * n, kInvalidPort);
  }

  /// True when a worm at `s` in `phase` may drop copies: only once the
  /// worm is in its down segment (or at its terminal switch). Replicating
  /// while the worm is still eligible to climb would create upward
  /// dependencies that the deadlock-free replication support at the
  /// switches cannot allow.
  static bool CanDrop(SwitchId s, RoutePhase phase, SwitchId target) {
    return phase == RoutePhase::kDownOnly || s == target;
  }

  int Value(SwitchId s, RoutePhase phase) {
    const std::size_t idx = Index(s, phase);
    if (value_[idx] >= 0) return value_[idx];
    const int w = CanDrop(s, phase, target_) ? Weight(s) : 0;
    int v;
    if (s == target_) {
      v = w;
    } else {
      int best = -1;
      PortId best_port = kInvalidPort;
      for (PortId p : sys_.routing.Candidates(s, target_, phase)) {
        const SwitchId t = sys_.graph.port(s, p).peer_switch;
        const RoutePhase next = sys_.routing.NextPhase(s, p, phase);
        const int via = Value(t, next);
        if (via > best) {
          best = via;
          best_port = p;
        }
      }
      IRMC_ENSURE(best >= 0);
      v = w + best;
      choice_[idx] = best_port;
    }
    value_[idx] = v;
    return v;
  }

  /// Slot of (s, phase) in the value/choice tables.
  static std::size_t Index(SwitchId s, RoutePhase phase) {
    return static_cast<std::size_t>(s) * 2 +
           (phase == RoutePhase::kDownOnly ? 1 : 0);
  }

 private:
  int Weight(SwitchId s) const {
    return remaining_[static_cast<std::size_t>(s)] ? 1 : 0;
  }

  const System& sys_;
  SwitchId target_;
  const std::vector<char>& remaining_;
  std::vector<int>& value_;
  std::vector<PortId>& choice_;
};

}  // namespace

const BestPathResult& FindBestCoveragePath(const System& sys, SwitchId start,
                                           const std::vector<char>& remaining,
                                           int coverage_cap,
                                           CoveragePathScratch& scratch) {
  const int num_switches = sys.num_switches();
  IRMC_EXPECT(static_cast<int>(remaining.size()) == num_switches);
  IRMC_EXPECT(coverage_cap >= 1);

  // Pick the anchor destination switch whose best unicast route covers
  // the most remaining switches; ties to the shorter route, then the
  // lower switch ID. The best anchor's choice table is swapped aside;
  // the next anchor's DP resets the other buffer.
  SwitchId best_target = kInvalidSwitch;
  int best_cover = -1;
  int best_dist = 0;
  for (SwitchId t = 0; t < num_switches; ++t) {
    if (!remaining[static_cast<std::size_t>(t)]) continue;
    UnicastPathDp dp(sys, t, remaining, scratch.value, scratch.choice);
    const int cover = dp.Value(start, RoutePhase::kUpAllowed);
    const int dist = sys.routing.Distance(start, t);
    if (cover > best_cover || (cover == best_cover && dist < best_dist)) {
      best_cover = cover;
      best_dist = dist;
      best_target = t;
      std::swap(scratch.choice, scratch.best_choice);
    }
  }
  IRMC_ENSURE(best_target != kInvalidSwitch);
  IRMC_ENSURE(best_cover >= 1);

  // Reconstruct the route, applying the coverage cap: the worm is cut
  // right after the switch where the cap is reached.
  BestPathResult& result = scratch.path;
  result.switches.clear();
  result.ports.clear();
  result.covered.clear();
  SwitchId here = start;
  RoutePhase phase = RoutePhase::kUpAllowed;
  std::size_t cut = 0;  // one past the last switch kept
  for (;;) {
    result.switches.push_back(here);
    if (remaining[static_cast<std::size_t>(here)] &&
        (phase == RoutePhase::kDownOnly || here == best_target)) {
      result.covered.push_back(here);
      cut = result.switches.size();
      if (static_cast<int>(result.covered.size()) >= coverage_cap) break;
    }
    if (here == best_target) break;
    const PortId p =
        scratch.best_choice[UnicastPathDp::Index(here, phase)];
    IRMC_ENSURE(p != kInvalidPort);
    result.ports.push_back(p);
    phase = sys.routing.NextPhase(here, p, phase);
    here = sys.graph.port(here, p).peer_switch;
  }
  IRMC_ENSURE(!result.covered.empty());
  IRMC_ENSURE(cut >= 1);
  result.switches.resize(cut);
  result.ports.resize(cut - 1);
  return result;
}

BestPathResult FindBestCoveragePath(const System& sys, SwitchId start,
                                    const std::vector<char>& remaining,
                                    int coverage_cap) {
  CoveragePathScratch scratch;
  return FindBestCoveragePath(sys, start, remaining, coverage_cap, scratch);
}

McastPlan PathWormMdpLgScheme::Plan(const System& sys, NodeId src,
                                    const std::vector<NodeId>& dests,
                                    const MessageShape& shape,
                                    const HeaderSizing& headers) const {
  (void)shape;
  McastPlan plan;
  plan.scheme = SchemeKind::kPathWorm;
  plan.root = src;
  plan.dests = dests;

  const int num_switches = sys.num_switches();
  PlanScratch& sc = scratch_;
  // Destinations grouped by switch, in `dests` order: switch s holds
  // dests[dest_order[dest_begin[s] .. dest_begin[s + 1])].
  GroupByKey(
      static_cast<std::size_t>(num_switches), dests.size(),
      [&](std::size_t i) { return sys.graph.SwitchOf(dests[i]); },
      sc.dest_begin, sc.dest_order);
  std::vector<char>& remaining = sc.remaining;
  remaining.assign(static_cast<std::size_t>(num_switches), 0);
  int remaining_count = 0;
  for (std::size_t s = 0; s < remaining.size(); ++s) {
    if (sc.dest_begin[s] == sc.dest_begin[s + 1]) continue;
    remaining[s] = 1;
    ++remaining_count;
  }

  const int field_flits = headers.PathFieldFlits(sys.graph.ports_per_switch());
  std::vector<NodeId>& available = sc.available;
  std::vector<NodeId>& new_senders = sc.new_senders;
  available.assign(1, src);
  int phase = 1;
  while (remaining_count > 0) {
    new_senders.clear();
    for (NodeId sender : available) {
      if (remaining_count == 0) break;
      const int cap = less_greedy
                          ? std::max(1, (remaining_count + 1) / 2)
                          : remaining_count;
      const BestPathResult& path = FindBestCoveragePath(
          sys, sys.graph.SwitchOf(sender), remaining, cap, sc.search);

      // Build the worm route: drops at covered switches, explicit
      // forward ports between them.
      auto route = std::make_shared<PathWormRoute>();
      route->steps.resize(path.switches.size());
      McastPlan::PlannedWorm worm;
      worm.sender = sender;
      worm.phase = phase;
      for (std::size_t i = 0; i < path.switches.size(); ++i) {
        PathWormRoute::Step& step = route->steps[i];
        step.sw = path.switches[i];
        step.forward_port =
            i < path.ports.size() ? path.ports[i] : kInvalidPort;
        const auto si = static_cast<std::size_t>(step.sw);
        if (remaining[si]) {
          const auto first = static_cast<std::size_t>(sc.dest_begin[si]);
          const auto last = static_cast<std::size_t>(sc.dest_begin[si + 1]);
          step.deliver.reserve(last - first);
          for (std::size_t d = first; d < last; ++d)
            step.deliver.push_back(
                dests[static_cast<std::size_t>(sc.dest_order[d])]);
          worm.covered.insert(worm.covered.end(), step.deliver.begin(),
                              step.deliver.end());
          new_senders.push_back(step.deliver.front());
          remaining[si] = 0;
          --remaining_count;
        }
      }
      // Header accounting: one field pair per replication switch plus
      // the terminal switch; fields are stripped as consumed.
      const int fields_total = route->NumFields();
      worm.header_flits = fields_total * field_flits;
      int fields_ahead = fields_total;
      for (std::size_t i = 0; i < route->steps.size(); ++i) {
        PathWormRoute::Step& step = route->steps[i];
        const bool is_last = (i + 1 == route->steps.size());
        if (!step.deliver.empty() || is_last) --fields_ahead;
        step.header_flits_after = fields_ahead * field_flits;
      }
      IRMC_ENSURE(fields_ahead == 0);
      IRMC_ENSURE(sys.routing.IsLegalRoute(path.switches.front(), path.ports));
      worm.route = std::move(route);
      plan.worms.push_back(std::move(worm));
    }
    IRMC_ENSURE(!new_senders.empty());
    available.insert(available.end(), new_senders.begin(), new_senders.end());
    ++phase;
  }
  return plan;
}

}  // namespace irmc
