#include "network/route_logic.hpp"

#include <span>

namespace irmc {
namespace {

/// Least-loaded port among the candidates `take` accepts (first on
/// ties); the first accepted one when adaptivity is disabled.
/// kInvalidPort when `take` accepts none.
template <class Take>
PortId PickPortWhere(SwitchId s, std::span<const PortId> candidates,
                     bool adaptive, const PortLoadFn& load, Take&& take) {
  PortId best = kInvalidPort;
  int best_load = 0;
  for (PortId p : candidates) {
    if (!take(p)) continue;
    if (best == kInvalidPort) {
      best = p;
      if (!adaptive) break;
      best_load = load(s, p);
    } else if (const int l = load(s, p); l < best_load) {
      best = p;
      best_load = l;
    }
  }
  return best;
}

PortId PickPort(SwitchId s, std::span<const PortId> candidates,
                bool adaptive, const PortLoadFn& load) {
  IRMC_EXPECT(!candidates.empty());
  return PickPortWhere(s, candidates, adaptive, load,
                       [](PortId) { return true; });
}

RouteBranch MakeHostBranch(const System& sys, SwitchId s, NodeId n,
                           const PacketPtr& pkt) {
  const HostAttachment& at = sys.graph.host(n);
  IRMC_EXPECT(at.sw == s);
  PacketPtr copy = CloneForBranch(pkt);
  if (copy->kind == HeaderKind::kTreeWorm) {
    NodeSet only(copy->tree_dests.capacity());
    only.Set(n);
    copy->tree_dests = only;
  }
  return RouteBranch{std::move(copy), at.port};
}

bool TryRouteUnicast(const System& sys, SwitchId s, const PacketPtr& pkt,
                     bool adaptive, const PortLoadFn& load,
                     std::vector<RouteBranch>& out) {
  const SwitchId dest_sw = sys.graph.SwitchOf(pkt->uni_dest);
  if (dest_sw == s) {
    out.push_back(MakeHostBranch(sys, s, pkt->uni_dest, pkt));
    return true;
  }
  const auto& cand = sys.routing.Candidates(s, dest_sw, pkt->phase);
  if (cand.empty()) return false;  // stale phase under swapped tables
  const PortId p = PickPort(s, cand, adaptive, load);
  PacketPtr copy = CloneForBranch(pkt);
  copy->phase = sys.routing.NextPhase(s, p, pkt->phase);
  out.push_back(RouteBranch{std::move(copy), p});
  return true;
}

// The tree-worm move relation, as three predicates that both the
// executed route (TryRouteTreeWorm) and the analyzed one
// (TreeWormDecision) are built from.

/// True when `rem` is replicated downward at s (else it climbs).
bool TreeGoesDown(const System& sys, SwitchId s, NodeSetView rem) {
  return rem.IsSubsetOf(sys.reach.DownCover(s));
}

/// Downward replication: down port p carries a branch.
bool TreeDownTakes(const System& sys, SwitchId s, PortId p,
                   NodeSetView rem) {
  return rem.Intersects(sys.reach.Primary(s, p));
}

/// Climbing: up port p's peer can finish covering `rem`.
bool TreeUpCovers(const System& sys, SwitchId s, PortId p, NodeSetView rem) {
  const SwitchId t = sys.graph.port(s, p).peer_switch;
  return rem.IsSubsetOfUnion(sys.reach.DownCover(t), sys.reach.Local(t));
}

/// TreeWormDecision without the phase-rule aborts: returns false where
/// the public wrapper would ENSURE (down-only worm below a subtree the
/// reconfigured tree moved away, or a climbing worm at a switch the new
/// orientation made a root with no up ports).
bool TryTreeDecision(const System& sys, SwitchId s, const NodeSet& rem,
                     RoutePhase phase, TreeRouteDecision* decision) {
  IRMC_EXPECT(!rem.Empty());
  if (TreeGoesDown(sys, s, rem)) {
    decision->down = true;
    for (PortId p : sys.updown.DownPorts(s))
      if (TreeDownTakes(sys, s, p, rem)) decision->ports.push_back(p);
    return true;
  }

  // Not down-coverable from here: continue climbing toward a least
  // common ancestor. Legal only while the worm has not gone down.
  if (phase != RoutePhase::kUpAllowed) return false;
  const auto& ups = sys.updown.UpPorts(s);
  if (ups.empty()) return false;
  for (PortId p : ups)
    if (TreeUpCovers(sys, s, p, rem)) decision->ports.push_back(p);
  if (decision->ports.empty())
    decision->ports.assign(ups.begin(), ups.end());
  return true;
}

bool TryRouteTreeWorm(const System& sys, SwitchId s, const PacketPtr& pkt,
                      bool adaptive, const PortLoadFn& load,
                      std::vector<RouteBranch>& out) {
  const Reachability& reach = sys.reach;
  NodeSet locals(pkt->tree_dests.capacity());
  locals.AssignIntersection(pkt->tree_dests, reach.Local(s));
  NodeSet rem = pkt->tree_dests;
  rem.Subtract(locals);

  // The same decision as TryTreeDecision, made without materializing
  // its port list.
  const bool down = !rem.Empty() && TreeGoesDown(sys, s, rem);
  PortId up_port = kInvalidPort;
  if (!rem.Empty() && !down) {
    if (pkt->phase != RoutePhase::kUpAllowed) return false;
    const auto& ups = sys.updown.UpPorts(s);
    if (ups.empty()) return false;
    // Pick among the covering up ports, or among all of them when none
    // covers yet.
    up_port = PickPortWhere(s, ups, adaptive, load, [&](PortId p) {
      return TreeUpCovers(sys, s, p, rem);
    });
    if (up_port == kInvalidPort) up_port = PickPort(s, ups, adaptive, load);
  }

  locals.ForEach(
      [&](NodeId n) { out.push_back(MakeHostBranch(sys, s, n, pkt)); });
  if (rem.Empty()) return true;

  if (down) {
    // Replicate downward along the partitioned reachability strings.
    NodeSet covered(rem.capacity());
    for (PortId p : sys.updown.DownPorts(s)) {
      if (!TreeDownTakes(sys, s, p, rem)) continue;
      PacketPtr copy = CloneForBranch(pkt);
      copy->tree_dests.AssignIntersection(rem, reach.Primary(s, p));
      copy->phase = RoutePhase::kDownOnly;
      covered |= copy->tree_dests;
      out.push_back(RouteBranch{std::move(copy), p});
    }
    IRMC_ENSURE(covered == rem);
    return true;
  }

  PacketPtr copy = CloneForBranch(pkt);
  copy->tree_dests = rem;
  copy->phase = RoutePhase::kUpAllowed;
  out.push_back(RouteBranch{std::move(copy), up_port});
  return true;
}

bool TryRoutePathWorm(const System& sys, SwitchId s, const PacketPtr& pkt,
                      std::vector<RouteBranch>& out) {
  IRMC_EXPECT(pkt->path != nullptr);
  IRMC_EXPECT(pkt->path_cursor < pkt->path->steps.size());
  const PathWormRoute::Step& step = pkt->path->steps[pkt->path_cursor];
  // A precomputed hop list goes stale wholesale after a reconfig swap:
  // the cursor can name a switch the worm is not at, or a forward port
  // the dead link vacated.
  if (step.sw != s) return false;
  if (step.forward_port != kInvalidPort &&
      sys.graph.port(s, step.forward_port).kind != PortKind::kSwitch)
    return false;
  for (NodeId n : step.deliver)
    out.push_back(MakeHostBranch(sys, s, n, pkt));
  if (step.forward_port == kInvalidPort) {
    IRMC_ENSURE(!step.deliver.empty());  // a worm must end with a drop
    return true;
  }
  PacketPtr copy = CloneForBranch(pkt);
  copy->path_cursor = pkt->path_cursor + 1;
  copy->header_flits = step.header_flits_after;
  copy->phase = sys.routing.NextPhase(s, step.forward_port, pkt->phase);
  out.push_back(RouteBranch{std::move(copy), step.forward_port});
  return true;
}

bool TryRoute(const System& sys, SwitchId s, const PacketPtr& pkt,
              bool adaptive, const PortLoadFn& load,
              std::vector<RouteBranch>& out) {
  const std::size_t first = out.size();
  bool ok = false;
  switch (pkt->kind) {
    case HeaderKind::kUnicast:
      ok = TryRouteUnicast(sys, s, pkt, adaptive, load, out);
      break;
    case HeaderKind::kTreeWorm:
      ok = TryRouteTreeWorm(sys, s, pkt, adaptive, load, out);
      break;
    case HeaderKind::kPathWorm:
      ok = TryRoutePathWorm(sys, s, pkt, out);
      break;
  }
  if (!ok) {
    out.resize(first);
    return false;
  }
  for (std::size_t i = first; i < out.size(); ++i)
    if (out[i].pkt->hop_log)
      out[i].pkt->hop_log->push_back(HopRecord{s, out[i].port});
  return true;
}

}  // namespace

TreeRouteDecision TreeWormDecision(const System& sys, SwitchId s,
                                   const NodeSet& rem, RoutePhase phase) {
  TreeRouteDecision decision;
  if (TryTreeDecision(sys, s, rem, phase, &decision)) return decision;
  // Re-derive which contract the caller violated so the abort message
  // stays as specific as it was before the Try split.
  IRMC_ENSURE(phase == RoutePhase::kUpAllowed);
  IRMC_ENSURE(!sys.updown.UpPorts(s).empty());
  IRMC_ENSURE(false && "unroutable tree worm");
  return decision;
}

void ComputeRouteBranches(const System& sys, SwitchId s, const PacketPtr& pkt,
                          bool adaptive, const PortLoadFn& load,
                          std::vector<RouteBranch>& out) {
  IRMC_ENSURE(TryRoute(sys, s, pkt, adaptive, load, out) &&
              "unroutable packet (stale header without a drop handler?)");
}

bool TryComputeRouteBranches(const System& sys, SwitchId s,
                             const PacketPtr& pkt, bool adaptive,
                             const PortLoadFn& load,
                             std::vector<RouteBranch>& out) {
  return TryRoute(sys, s, pkt, adaptive, load, out);
}

}  // namespace irmc
