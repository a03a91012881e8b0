#include "verify/deadlock.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/expect.hpp"

namespace irmc::verify {
namespace {

/// Builds the dense channel universe in (switch, port) order: every
/// switch-to-switch port, plus every host-ejection port when
/// `with_ejection`. Returns the (s*ports + p) -> dense id map (-1 = not
/// a channel).
std::vector<int> MapChannels(const Graph& g, bool with_ejection,
                             ExtCdg& cdg) {
  const int ports = g.ports_per_switch();
  std::vector<int> dense(
      static_cast<std::size_t>(g.num_switches()) *
          static_cast<std::size_t>(ports),
      -1);
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (PortId p = 0; p < ports; ++p) {
      const Port& pt = g.port(s, p);
      if (pt.kind != PortKind::kSwitch &&
          !(with_ejection && pt.kind == PortKind::kHost))
        continue;
      dense[static_cast<std::size_t>(s) * static_cast<std::size_t>(ports) +
            static_cast<std::size_t>(p)] =
          static_cast<int>(cdg.channels.size());
      cdg.channels.push_back(
          ChannelRef{s, p, pt.kind == PortKind::kHost});
    }
  }
  return dense;
}

/// Dense id of channel (s, p) in a MapChannels map (-1 = not a channel).
int ChannelAt(const std::vector<int>& dense, int ports, SwitchId s, PortId p) {
  return dense[static_cast<std::size_t>(s) * static_cast<std::size_t>(ports) +
               static_cast<std::size_t>(p)];
}

/// The phase of a packet that crossed switch-to-switch channel (s, p):
/// down-only iff the traversal was a down move.
RoutePhase PhaseAfter(const UpDownOrientation& ud, SwitchId s, PortId p) {
  return ud.IsUp(s, p) ? RoutePhase::kUpAllowed : RoutePhase::kDownOnly;
}

/// Deduplicating edge sink for one source channel.
class EdgeSink {
 public:
  EdgeSink(ExtCdg& cdg, std::vector<int>& stamp) : cdg_(cdg), stamp_(stamp) {}

  void Begin(int from) {
    from_ = from;
    ++epoch_;
  }

  void Add(int to, DepKind kind) {
    if (to < 0 || to == from_) return;
    if (stamp_[static_cast<std::size_t>(to)] == epoch_) return;
    stamp_[static_cast<std::size_t>(to)] = epoch_;
    cdg_.edges.push_back(DepEdge{from_, to, kind});
    switch (kind) {
      case DepKind::kRoute: ++cdg_.route_edges; break;
      case DepKind::kAbsorption: ++cdg_.absorption_edges; break;
      case DepKind::kCoupling: ++cdg_.coupling_edges; break;
    }
  }

 private:
  ExtCdg& cdg_;
  std::vector<int>& stamp_;
  int from_ = -1;
  int epoch_ = 0;
};

/// Base (kRoute) edges out of switch-to-switch channel (s, p) for one
/// scheme, appended through `sink`. `dense` maps (t*ports + q) to
/// channel ids; `singles` holds per-node singleton sets.
void AddRouteEdges(const System& sys, SchemeKind scheme, RoutingMode mode,
                   SwitchId s, PortId p, const RoutingView& routing,
                   const TreeDecisionView& tree,
                   const std::vector<NodeSet>& singles,
                   const std::vector<int>& dense, EdgeSink& sink) {
  const Graph& g = sys.graph;
  const int ports = g.ports_per_switch();
  const SwitchId t = g.port(s, p).peer_switch;
  const RoutePhase phase = PhaseAfter(sys.updown, s, p);
  auto id_at_t = [&](PortId q) { return ChannelAt(dense, ports, t, q); };
  auto add_host = [&](NodeId n) {
    sink.Add(id_at_t(g.host(n).port), DepKind::kRoute);
  };
  auto add_unicast_like = [&] {
    // Worms terminating at t eject; worms passing through follow the
    // routing-table candidates toward any host-bearing switch.
    for (NodeId n : g.HostsAt(t)) add_host(n);
    for (SwitchId d = 0; d < g.num_switches(); ++d) {
      if (d == t || g.HostsAt(d).empty()) continue;
      const auto cands = routing.candidates(t, d, phase);
      if (cands.empty()) continue;
      if (mode == RoutingMode::kDeterministic) {
        sink.Add(id_at_t(cands.front()), DepKind::kRoute);
      } else {
        for (PortId q : cands) sink.Add(id_at_t(q), DepKind::kRoute);
      }
    }
  };

  switch (scheme) {
    case SchemeKind::kUnicastBinomial:
    case SchemeKind::kNiKBinomial:
      add_unicast_like();
      break;
    case SchemeKind::kPathWorm:
      // MDP-LG path worms follow shortest legal unicast routes chosen
      // at plan time (either candidate may be picked regardless of the
      // runtime routing mode) and may multi-drop at any switch with
      // hosts en route — the adaptive unicast relation is the sound
      // closure of their moves.
      for (NodeId n : g.HostsAt(t)) add_host(n);
      for (SwitchId d = 0; d < g.num_switches(); ++d) {
        if (d == t || g.HostsAt(d).empty()) continue;
        for (PortId q : routing.candidates(t, d, phase))
          sink.Add(id_at_t(q), DepKind::kRoute);
      }
      break;
    case SchemeKind::kTreeWorm: {
      const Reachability& reach = sys.reach;
      if (phase == RoutePhase::kDownOnly) {
        // Only destinations in the primary string of (s, p) can ride
        // this channel downward; at t each is delivered locally or
        // forwarded to its owning down port.
        for (NodeId n : reach.Primary(s, p).ToVector()) {
          if (reach.Local(t).Test(n)) {
            add_host(n);
            continue;
          }
          const TreeRouteDecision d =
              tree.decide(t, singles[static_cast<std::size_t>(n)],
                          RoutePhase::kDownOnly);
          for (PortId q : d.ports) sink.Add(id_at_t(q), DepKind::kRoute);
        }
      } else {
        // A climbing worm may carry any destination set: it can keep
        // climbing through every up port of t (when some member is not
        // yet coverable), turn downward to the owning port of each
        // coverable destination, and drop local copies.
        for (NodeId n : g.HostsAt(t)) add_host(n);
        for (PortId q : sys.updown.UpPorts(t))
          sink.Add(id_at_t(q), DepKind::kRoute);
        for (NodeId n = 0; n < g.num_hosts(); ++n) {
          if (reach.Local(t).Test(n) || !reach.DownCover(t).Test(n)) continue;
          const TreeRouteDecision d =
              tree.decide(t, singles[static_cast<std::size_t>(n)],
                          RoutePhase::kUpAllowed);
          if (!d.down) continue;
          for (PortId q : d.ports) sink.Add(id_at_t(q), DepKind::kRoute);
        }
      }
      break;
    }
  }
}

/// Branch-coupling (kCoupling) edges: mutual progress dependencies
/// between the channels one unabsorbed multidestination worm can hold
/// at a replication switch. A flit leaves the shared input buffer only
/// when every branch has consumed it, so a blocked branch starves its
/// siblings — a dependency up*/down* does not order.
void AddCouplingEdges(const System& sys, SchemeKind scheme,
                      const std::vector<int>& dense, ExtCdg& cdg) {
  const Graph& g = sys.graph;
  const int ports = g.ports_per_switch();
  std::set<std::pair<int, int>> seen;
  auto couple = [&](int a, int b) {
    if (a < 0 || b < 0 || a == b) return;
    if (!seen.insert({a, b}).second) return;
    cdg.edges.push_back(DepEdge{a, b, DepKind::kCoupling});
    ++cdg.coupling_edges;
  };
  auto couple_all = [&](const std::vector<int>& group) {
    for (int a : group)
      for (int b : group) couple(a, b);
  };

  for (SwitchId t = 0; t < g.num_switches(); ++t) {
    auto id_at = [&](PortId q) { return ChannelAt(dense, ports, t, q); };
    std::vector<int> hosts;
    for (NodeId n : g.HostsAt(t)) hosts.push_back(id_at(g.host(n).port));

    if (scheme == SchemeKind::kTreeWorm) {
      // Down-replication: sibling down branches (one per non-empty
      // primary string) plus local drops all drain one buffer.
      std::vector<int> group = hosts;
      for (PortId q : sys.updown.DownPorts(t))
        if (!sys.reach.Primary(t, q).Empty()) group.push_back(id_at(q));
      couple_all(group);
      // Climb-replication: local drops against the single up branch.
      for (PortId u : sys.updown.UpPorts(t))
        for (int h : hosts) {
          couple(id_at(u), h);
          couple(h, id_at(u));
        }
    } else if (scheme == SchemeKind::kPathWorm) {
      // Multi-drop: local drops couple with each other and with the
      // single forward branch (which may take any legal direction).
      couple_all(hosts);
      for (PortId q = 0; q < ports; ++q) {
        if (!IsSwitchPort(g, t, q)) continue;
        for (int h : hosts) {
          couple(id_at(q), h);
          couple(h, id_at(q));
        }
      }
    }
  }
}

/// Absorption (kAbsorption) edges: a blocked worm spanning `span` input
/// buffers keeps every channel up to span-1 route hops behind its head
/// in the dependency relation, so those upstream channels inherit the
/// head channel's requests (a span-limited transitive shortcut over the
/// kRoute edges; it never changes acyclicity on its own but shortens
/// witness cycles and models the PR 5 failure shape faithfully).
void AddAbsorptionEdges(ExtCdg& cdg) {
  const int n = static_cast<int>(cdg.channels.size());
  std::vector<std::vector<int>> route_adj(static_cast<std::size_t>(n));
  for (const DepEdge& e : cdg.edges)
    if (e.kind == DepKind::kRoute)
      route_adj[static_cast<std::size_t>(e.from)].push_back(e.to);

  const int depth_limit = std::min(cdg.span, n);
  std::vector<int> stamp(static_cast<std::size_t>(n), -1);
  std::vector<std::pair<int, int>> frontier;  // (channel, depth)
  for (int c = 0; c < n; ++c) {
    frontier.assign(1, {c, 0});
    stamp[static_cast<std::size_t>(c)] = c;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const auto [u, depth] = frontier[i];
      if (depth >= depth_limit) continue;
      for (int v : route_adj[static_cast<std::size_t>(u)]) {
        if (stamp[static_cast<std::size_t>(v)] == c) continue;
        stamp[static_cast<std::size_t>(v)] = c;
        frontier.push_back({v, depth + 1});
        if (depth + 1 >= 2) {
          cdg.edges.push_back(DepEdge{c, v, DepKind::kAbsorption});
          ++cdg.absorption_edges;
        }
      }
    }
  }
}

std::string DescribeChannel(const System& sys, const ChannelRef& c) {
  if (c.sw < 0 || c.sw >= sys.num_switches() || c.port < 0 ||
      c.port >= sys.graph.ports_per_switch())
    return Fmt("(sw %d:%d)", c.sw, c.port);
  const Port& pt = sys.graph.port(c.sw, c.port);
  if (pt.kind == PortKind::kHost)
    return Fmt("(sw %d:%d, eject to host %d)", c.sw, c.port, pt.host);
  if (pt.kind == PortKind::kSwitch)
    return Fmt("(sw %d:%d, %s link to sw %d)", c.sw, c.port,
               sys.updown.IsUp(c.sw, c.port) ? "up" : "down",
               pt.peer_switch);
  return Fmt("(sw %d:%d)", c.sw, c.port);
}

}  // namespace

TreeDecisionView ViewOfTreeRoutes(const System& sys) {
  return TreeDecisionView{
      [&sys](SwitchId s, const NodeSet& rem, RoutePhase phase) {
        return TreeWormDecision(sys, s, rem, phase);
      }};
}

int MaxWormWireFlits(const System& sys, SchemeKind scheme,
                     const DeadlockSpec& spec) {
  switch (scheme) {
    case SchemeKind::kUnicastBinomial:
    case SchemeKind::kNiKBinomial:
      return spec.payload_flits + spec.headers.UnicastFlits();
    case SchemeKind::kTreeWorm:
      return spec.payload_flits +
             spec.headers.TreeWormFlits(sys.num_nodes());
    case SchemeKind::kPathWorm:
      // At most one (node-ID, port-string) field per visited switch.
      return spec.payload_flits +
             sys.num_switches() *
                 spec.headers.PathFieldFlits(sys.graph.ports_per_switch());
  }
  return spec.payload_flits;
}

ExtCdg BuildExtendedCdg(const System& sys, SchemeKind scheme,
                        RoutingMode mode, const DeadlockSpec& spec,
                        const RoutingView& routing,
                        const TreeDecisionView& tree) {
  ExtCdg cdg;
  cdg.payload_flits = spec.payload_flits;
  cdg.worm_flits = MaxWormWireFlits(sys, scheme, spec);
  cdg.buffer_flits = spec.net.buffer_flits;
  // The VCT engine stores whole packets (cut-through); only the flit
  // engine's finite flit buffers can fail to absorb a worm.
  cdg.absorbable = spec.engine != EngineKind::kFlit ||
                   cdg.worm_flits <= cdg.buffer_flits;
  cdg.span = cdg.absorbable
                 ? 1
                 : (cdg.worm_flits + cdg.buffer_flits - 1) /
                       std::max(1, cdg.buffer_flits);

  const Graph& g = sys.graph;
  const std::vector<int> dense = MapChannels(g, /*with_ejection=*/true, cdg);

  std::vector<NodeSet> singles;
  singles.reserve(static_cast<std::size_t>(g.num_hosts()));
  for (NodeId n = 0; n < g.num_hosts(); ++n) {
    NodeSet one(g.num_hosts());
    one.Set(n);
    singles.push_back(std::move(one));
  }

  std::vector<int> stamp(cdg.channels.size(), 0);
  EdgeSink sink(cdg, stamp);
  for (std::size_t id = 0; id < cdg.channels.size(); ++id) {
    const ChannelRef& c = cdg.channels[id];
    if (c.to_host) continue;  // ejection channels request nothing further
    sink.Begin(static_cast<int>(id));
    AddRouteEdges(sys, scheme, mode, c.sw, c.port, routing, tree, singles,
                  dense, sink);
  }

  if (!cdg.absorbable) {
    if (scheme == SchemeKind::kTreeWorm || scheme == SchemeKind::kPathWorm)
      AddCouplingEdges(sys, scheme, dense, cdg);
    AddAbsorptionEdges(cdg);
  }
  return cdg;
}

CheckResult CheckDeadlockFreedom(const Graph& g, const UpDownOrientation& ud,
                                 const RoutingView& routing) {
  CheckResult r;
  r.name = "deadlock-freedom";
  // Unicast CDG: switch-to-switch channels only (injection and ejection
  // channels are sources/sinks and cannot lie on a cycle). A packet that
  // arrived at t over (s, p) may request every candidate of t toward any
  // other switch, in the phase s -> p left it in.
  ExtCdg cdg;
  const std::vector<int> dense = MapChannels(g, /*with_ejection=*/false, cdg);
  const int ports = g.ports_per_switch();
  std::vector<int> stamp(cdg.channels.size(), 0);
  EdgeSink sink(cdg, stamp);
  for (std::size_t id = 0; id < cdg.channels.size(); ++id) {
    const ChannelRef& c = cdg.channels[id];
    const SwitchId t = g.port(c.sw, c.port).peer_switch;
    const RoutePhase phase = PhaseAfter(ud, c.sw, c.port);
    sink.Begin(static_cast<int>(id));
    for (SwitchId d = 0; d < g.num_switches(); ++d) {
      if (d == t) continue;
      for (PortId q : routing.candidates(t, d, phase))
        if (IsSwitchPort(g, t, q))
          sink.Add(ChannelAt(dense, ports, t, q), DepKind::kRoute);
    }
  }

  r.checked = static_cast<long long>(cdg.channels.size());
  r.note = Fmt("%lld channels, %lld dependencies", r.checked, cdg.route_edges);
  if (const auto cycle = FindDependencyCycle(cdg)) {
    std::string text = "channel dependency cycle:";
    for (int id : cycle->channels) {
      const ChannelRef& c = cdg.channels[static_cast<std::size_t>(id)];
      text += Fmt(" (%d:%d) ->", c.sw, c.port);
    }
    const ChannelRef& first =
        cdg.channels[static_cast<std::size_t>(cycle->channels.front())];
    text += Fmt(" (%d:%d)", first.sw, first.port);
    r.AddViolation(std::move(text));
  }
  return r;
}

std::optional<DepCycle> FindDependencyCycle(const ExtCdg& cdg) {
  const int n = static_cast<int>(cdg.channels.size());

  // Minimal witness first: a mutual coupling pair is a 2-cycle; prefer
  // one between switch-to-switch channels (sibling network branches)
  // over pairs involving ejection channels.
  {
    std::set<std::pair<int, int>> coupling;
    for (const DepEdge& e : cdg.edges)
      if (e.kind == DepKind::kCoupling) coupling.insert({e.from, e.to});
    int best_a = -1, best_b = -1, best_rank = 3;
    for (const auto& [a, b] : coupling) {
      if (a >= b || !coupling.count({b, a})) continue;
      const int rank = (cdg.channels[static_cast<std::size_t>(a)].to_host ? 1
                                                                          : 0) +
                       (cdg.channels[static_cast<std::size_t>(b)].to_host ? 1
                                                                          : 0);
      if (rank < best_rank) {
        best_rank = rank;
        best_a = a;
        best_b = b;
        if (rank == 0) break;
      }
    }
    if (best_a != -1) {
      DepCycle cycle;
      cycle.channels = {best_a, best_b};
      cycle.kinds = {DepKind::kCoupling, DepKind::kCoupling};
      return cycle;
    }
  }

  // General case: iterative DFS with path + edge-kind reconstruction.
  std::vector<std::vector<std::pair<int, DepKind>>> adj(
      static_cast<std::size_t>(n));
  for (const DepEdge& e : cdg.edges)
    if (e.from >= 0 && e.from < n && e.to >= 0 && e.to < n)
      adj[static_cast<std::size_t>(e.from)].push_back({e.to, e.kind});

  enum : char { kWhite = 0, kGrey = 1, kBlack = 2 };
  std::vector<char> colour(static_cast<std::size_t>(n), kWhite);
  struct Frame {
    int node;
    std::size_t child;
    DepKind entered_by;  ///< kind of the edge used to reach `node`
  };
  for (int start = 0; start < n; ++start) {
    if (colour[static_cast<std::size_t>(start)] != kWhite) continue;
    std::vector<Frame> stack{{start, 0, DepKind::kRoute}};
    colour[static_cast<std::size_t>(start)] = kGrey;
    while (!stack.empty()) {
      Frame& top = stack.back();
      const auto& kids = adj[static_cast<std::size_t>(top.node)];
      if (top.child >= kids.size()) {
        colour[static_cast<std::size_t>(top.node)] = kBlack;
        stack.pop_back();
        continue;
      }
      const auto [next, kind] = kids[top.child++];
      if (colour[static_cast<std::size_t>(next)] == kGrey) {
        // Cycle: walk the stack back to `next`.
        DepCycle cycle;
        std::vector<Frame> path;
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          path.push_back(*it);
          if (it->node == next) break;
        }
        std::reverse(path.begin(), path.end());
        for (std::size_t i = 0; i < path.size(); ++i) {
          cycle.channels.push_back(path[i].node);
          cycle.kinds.push_back(i + 1 < path.size() ? path[i + 1].entered_by
                                                    : kind);
        }
        return cycle;
      }
      if (colour[static_cast<std::size_t>(next)] == kWhite) {
        colour[static_cast<std::size_t>(next)] = kGrey;
        stack.push_back(Frame{next, 0, kind});
      }
    }
  }
  return std::nullopt;
}

std::string RenderWitness(const System& sys, const ExtCdg& cdg,
                          const DepCycle& cycle) {
  std::string out = "extended channel-dependency cycle:";
  for (std::size_t i = 0; i < cycle.channels.size(); ++i) {
    const auto& c =
        cdg.channels[static_cast<std::size_t>(cycle.channels[i])];
    out += ' ';
    out += DescribeChannel(sys, c);
    out += Fmt(" -[%s]->", ToString(cycle.kinds[i]));
  }
  if (!cycle.channels.empty()) {
    const auto& first =
        cdg.channels[static_cast<std::size_t>(cycle.channels.front())];
    out += " back to ";
    out += DescribeChannel(sys, first);
  }
  bool via_coupling = false;
  for (DepKind k : cycle.kinds)
    if (k != DepKind::kRoute) via_coupling = true;
  if (via_coupling && !cdg.absorbable)
    out += Fmt("; absorption violation: worm wire length %d flits "
               "(%d payload + %d header) exceeds buffer_flits %d — a "
               "blocked worm spans %d input buffers and couples its "
               "branches",
               cdg.worm_flits, cdg.payload_flits,
               cdg.worm_flits - cdg.payload_flits, cdg.buffer_flits,
               cdg.span);
  return out;
}

SchemeDeadlockResult AnalyzeSchemeDeadlock(const System& sys,
                                           SchemeKind scheme,
                                           RoutingMode mode,
                                           const DeadlockSpec& spec) {
  SchemeDeadlockResult result;
  result.scheme = scheme;
  result.mode = mode;
  result.cdg = BuildExtendedCdg(sys, scheme, mode, spec, ViewOf(sys.routing),
                                ViewOfTreeRoutes(sys));
  result.cycle = FindDependencyCycle(result.cdg);
  if (result.cycle)
    result.witness = Fmt("scheme %s (%s): ", ToString(scheme),
                         ToString(mode)) +
                     RenderWitness(sys, result.cdg, *result.cycle);
  return result;
}

CheckResult CheckMulticastDeadlock(const System& sys,
                                   const DeadlockSpec& spec) {
  CheckResult r;
  r.name = "multicast-deadlock";
  long long route = 0, absorption = 0, coupling = 0;
  long long channels = 0;
  for (SchemeKind scheme : kAllSchemes) {
    for (RoutingMode mode :
         {RoutingMode::kDeterministic, RoutingMode::kAdaptive}) {
      const SchemeDeadlockResult res =
          AnalyzeSchemeDeadlock(sys, scheme, mode, spec);
      ++r.checked;
      channels = static_cast<long long>(res.cdg.channels.size());
      route += res.cdg.route_edges;
      absorption += res.cdg.absorption_edges;
      coupling += res.cdg.coupling_edges;
      if (!res.deadlock_free()) r.AddViolation(res.witness);
    }
  }
  r.note = Fmt("%lld scheme/mode combos over %lld channels; %lld route + "
               "%lld absorption + %lld coupling deps (%s engine, "
               "buffer_flits %d)",
               r.checked, channels, route, absorption, coupling,
               spec.engine == EngineKind::kFlit ? "flit" : "vct",
               spec.net.buffer_flits);
  return r;
}

VerifyReport VerifySystem(const System& sys, std::string label,
                          const DeadlockSpec& deadlock) {
  VerifyReport report = VerifySystem(sys, std::move(label));
  report.checks.push_back(CheckMulticastDeadlock(sys, deadlock));
  return report;
}

}  // namespace irmc::verify
