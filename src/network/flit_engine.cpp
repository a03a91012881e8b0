#include "network/flit_engine.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/expect.hpp"
#include "network/route_logic.hpp"

namespace irmc {

FlitEngine::FlitEngine(Engine& engine, const System& sys,
                       const NetParams& params, DeliverFn deliver,
                       MetricsRegistry& metrics, Tracer* tracer)
    : engine_(engine),
      sys_(&sys),
      params_(params),
      deliver_(std::move(deliver)),
      tracer_(tracer),
      metrics_(metrics),
      m_flits_(metrics.GetCounter("flit.flits_moved")),
      m_switched_(metrics.GetCounter("flit.packets_switched")),
      m_injected_(metrics.GetCounter("flit.packets_injected")),
      m_replications_(metrics.GetCounter("flit.replications")),
      m_host_deliveries_(metrics.GetCounter("flit.host_deliveries")),
      m_blocked_(metrics.GetCounter("flit.blocked_cycles")),
      m_fanout_(metrics.GetHistogram("flit.route_fanout")),
      m_header_flits_(metrics.GetHistogram("flit.header_flits")),
      ports_(sys.graph.ports_per_switch()) {
  IRMC_EXPECT(deliver_ != nullptr);
  IRMC_EXPECT(params_.buffer_flits >= 1);
  IRMC_EXPECT(params_.deadlock_horizon >= 1);
  const auto n_ports = static_cast<std::size_t>(sys.num_switches()) *
                       static_cast<std::size_t>(ports_);
  inputs_.assign(n_ports, InputPort{params_.buffer_flits, -1});
  channels_.resize(n_ports + static_cast<std::size_t>(sys.num_nodes()));
  for (SwitchId sw = 0; sw < sys.num_switches(); ++sw) {
    for (PortId pt = 0; pt < ports_; ++pt) {
      Channel& c = channels_[PortIdx(sw, pt)];
      const Port& port = sys.graph.port(sw, pt);
      if (port.kind == PortKind::kSwitch) {
        c.dst_port_index =
            static_cast<int>(PortIdx(port.peer_switch, port.peer_port));
      } else if (port.kind == PortKind::kHost) {
        c.sink_host = port.host;
        c.to_host = true;
      }
    }
  }
  for (NodeId n = 0; n < sys.num_nodes(); ++n) {
    Channel& c = channels_[InjChannel(n)];
    const HostAttachment& at = sys.graph.host(n);
    c.dst_port_index = static_cast<int>(PortIdx(at.sw, at.port));
  }
  inject_queues_.resize(static_cast<std::size_t>(sys.num_nodes()));
  busy_channels_.Resize(channels_.size());
  injecting_nodes_.Resize(inject_queues_.size());
}

void FlitEngine::InjectFromNi(NodeId n, PacketPtr pkt, Cycles ready) {
  IRMC_EXPECT(pkt != nullptr);
  IRMC_EXPECT(pkt->WireFlits() > 0);
  if (params_.record_routes && !pkt->hop_log)
    pkt->hop_log = std::make_shared<std::vector<HopRecord>>();
  TraceAt(engine_.Now(), TraceKind::kInject, *pkt, n, -1);
  m_injected_.Add();
  m_header_flits_.Add(pkt->header_flits);
  inject_queues_[static_cast<std::size_t>(n)].emplace_back(std::move(pkt),
                                                           ready);
  injecting_nodes_.Set(static_cast<std::size_t>(n));
  ScheduleTick(ready);
}

int FlitEngine::InjectionBacklog(NodeId n) const {
  return static_cast<int>(inject_queues_[static_cast<std::size_t>(n)].size()) +
         channels_[InjChannel(n)].Load();
}

std::int64_t FlitEngine::TotalBacklog() const {
  std::int64_t total = 0;
  for (const Channel& c : channels_) total += c.Load();
  for (const auto& q : inject_queues_)
    total += static_cast<std::int64_t>(q.size());
  return total;
}

std::vector<LinkLoadReport> FlitEngine::LinkReports(Cycles now) const {
  std::vector<LinkLoadReport> out;
  const double elapsed = now > 0 ? static_cast<double>(now) : 1.0;
  for (SwitchId s = 0; s < sys_->num_switches(); ++s) {
    for (PortId p = 0; p < ports_; ++p) {
      const Port& pt = sys_->graph.port(s, p);
      if (pt.kind == PortKind::kFree) continue;
      const Channel& c = channels_[PortIdx(s, p)];
      LinkLoadReport r;
      r.sw = s;
      r.port = p;
      r.to_host = c.to_host;
      r.node = c.sink_host;
      r.flits = c.flits;
      // One flit per cycle per channel, so busy cycles == flits moved
      // (the Fabric's TimelineResource holds a channel for exactly one
      // cycle per wire flit too — the two engines report identically).
      r.utilization = static_cast<double>(c.flits) / elapsed;
      out.push_back(r);
    }
  }
  for (NodeId n = 0; n < sys_->num_nodes(); ++n) {
    const Channel& c = channels_[InjChannel(n)];
    LinkLoadReport r;
    r.node = n;
    r.flits = c.flits;
    r.utilization = static_cast<double>(c.flits) / elapsed;
    out.push_back(r);
  }
  return out;
}

void FlitEngine::CollectMetrics(Cycles now) {
  metrics_.GetCounter("flit.cycles_run").Add(ticks_);
  metrics_.GetCounter("flit.deliveries").Add(deliveries_);
  metrics_.GetGauge("flit.max_buffer_occupancy", GaugeMode::kMax)
      .Set(static_cast<double>(max_occupancy_));
  Counter& busy = metrics_.GetCounter("flit.link_busy_cycles");
  Histogram& util = metrics_.GetHistogram("flit.link_utilization_pct");
  Gauge& hottest =
      metrics_.GetGauge("flit.max_link_utilization", GaugeMode::kMax);
  double best = 0.0;
  for (const Channel& c : channels_) busy.Add(c.flits);
  for (const LinkLoadReport& r : LinkReports(now)) {
    if (r.sw == kInvalidSwitch || r.to_host) continue;  // switch-switch only
    util.Add(static_cast<std::int64_t>(100.0 * r.utilization));
    best = std::max(best, r.utilization);
  }
  hottest.Set(best);
}

// ---------------------------------------------------------------------------
// Fault handling: a dead channel never grants, never moves flits, and
// anything committed to it when it died is truncated. Truncation
// cascades downstream — a worm whose feeder branch was cut will never
// finish arriving, so its own branches (and their downstream worms) are
// killed too. Upstream the fabric keeps streaming: a worm that lost
// every branch enters discard mode so its feeder can drain and its
// input port frees at the tail, exactly as if it had been consumed.
// ---------------------------------------------------------------------------

void FlitEngine::ReportDrop(const PacketPtr& pkt, SwitchId where) {
  IRMC_ENSURE(drop_ != nullptr &&
              "fault truncated a worm but no drop handler is installed");
  drop_(pkt, engine_.Now(), where);
}

void FlitEngine::ReleaseWormPort(Worm& w) {
  if (w.port_index < 0 || w.port_released) return;
  w.port_released = true;
  pending_port_release_.push_back(w.port_index);
}

void FlitEngine::KillBranch(int bid) {
  BranchState& b = branches_[static_cast<std::size_t>(bid)];
  if (b.done) return;
  CloseStreak(b);  // emits the open stall interval; keeps the
                   // trace-vs-counter accounting identity
  b.done = true;
  Channel& c = channels_[static_cast<std::size_t>(b.channel)];
  if (c.active_branch == bid) {
    c.active_branch = -1;
  } else {
    for (auto it = c.waiting.begin(); it != c.waiting.end(); ++it) {
      if (*it == bid) {
        c.waiting.erase(it);
        break;
      }
    }
  }
  if (c.waiting.empty() && c.active_branch == -1)
    busy_channels_.Reset(static_cast<std::size_t>(b.channel));
  // Flits on the wire evaporate.
  std::size_t kept = 0;
  for (InFlight& entry : in_flight_)
    if (entry.branch != bid) in_flight_[kept++] = entry;
  in_flight_.resize(kept);
  // The downstream copy will never finish arriving.
  if (b.dst_worm != -1) KillWorm(b.dst_worm);
  Worm& src = worms_[static_cast<std::size_t>(b.src_worm)];
  if (--src.live_branches == 0 && src.port_index >= 0) {
    if (src.dead || src.received >= src.len) {
      ReleaseWormPort(src);
    } else {
      // The upstream feeder is alive and still streaming into this
      // buffer: swallow what arrives so it can drain.
      src.discarding = true;
      src.freed = src.received;
    }
  }
}

void FlitEngine::KillWorm(int wi) {
  Worm& w = worms_[static_cast<std::size_t>(wi)];
  if (w.dead) return;
  w.dead = true;
  if (w.routed) {
    // Copy: KillBranch recursion must not iterate a moving vector.
    const std::vector<int> branch_ids = w.branch_ids;
    for (int bid : branch_ids) KillBranch(bid);
  }
  // Either unrouted (still in route_queue_, skipped when popped) or all
  // branches now dead: no one will ever consume from this buffer again,
  // and its feeder was cut, so nothing more arrives either.
  ReleaseWormPort(worms_[static_cast<std::size_t>(wi)]);
}

void FlitEngine::FailLink(SwitchId sw, PortId port) {
  const Port& pt = sys_->graph.port(sw, port);
  IRMC_EXPECT(pt.kind == PortKind::kSwitch);
  const Cycles now = engine_.Now();
  const std::size_t fwd = PortIdx(sw, port);
  const std::size_t rev = PortIdx(pt.peer_switch, pt.peer_port);
  for (std::size_t ci : {fwd, rev}) {
    Channel& c = channels_[ci];
    if (c.dead_since != kNever) continue;
    c.dead_since = now;
    // Every branch committed to the link is cut; each reports its own
    // packet (whose destination set covers its whole subtree — cascade
    // kills underneath it are not re-reported).
    std::vector<int> doomed(c.waiting.begin(), c.waiting.end());
    if (c.active_branch != -1) doomed.push_back(c.active_branch);
    for (int bid : doomed) {
      ReportDrop(branches_[static_cast<std::size_t>(bid)].out_pkt,
                 static_cast<SwitchId>(ci / static_cast<std::size_t>(ports_)));
      KillBranch(bid);
    }
  }
  // Settle pending port releases / discard state on the next cycle.
  ScheduleTick(now + 1);
}

void FlitEngine::SwapSystem(const System& sys) {
  IRMC_EXPECT(sys.num_switches() == sys_->num_switches());
  IRMC_EXPECT(sys.graph.ports_per_switch() == ports_);
  IRMC_EXPECT(sys.num_nodes() == sys_->num_nodes());
  sys_ = &sys;
}

// ---------------------------------------------------------------------------
// Event-driven stepping. Each active cycle is one kernel event; the
// engine reschedules itself while any worm, flit, or ready injection
// remains, and goes quiet otherwise (a later injection re-arms it).
// ---------------------------------------------------------------------------

void FlitEngine::ScheduleTick(Cycles when) {
  const Cycles t =
      std::max(std::max(engine_.Now(), when), last_processed_ + 1);
  engine_.ScheduleAt(t, [this]() { Tick(); });
}

void FlitEngine::Tick() {
  if (frozen_) return;  // deadlock handler fired: stay wedged, stay quiet
  const Cycles now = engine_.Now();
  if (now <= last_processed_) return;  // duplicate wake-up for a done cycle
  last_processed_ = now;
  ++ticks_;
  ReleasePorts();
  LandFlits(now);
  PumpInjections(now);
  RouteWorms(now);
  MoveFlits(now);
  if (Busy(now)) ScheduleTick(now + 1);
}

bool FlitEngine::Busy(Cycles now) const {
  if (!in_flight_.empty() || !pending_port_release_.empty() ||
      !route_queue_.empty() || busy_channels_.Any())
    return true;
  // Future-ready injections do not keep the engine ticking: their
  // InjectFromNi scheduled a wake-up at `ready` already.
  bool ready = false;
  injecting_nodes_.ForEach([&](std::size_t n) {
    ready = ready || inject_queues_[n].front().second <= now;
  });
  return ready;
}

// --- cycle phases ---

void FlitEngine::ReleasePorts() {
  for (int port : pending_port_release_)
    inputs_[static_cast<std::size_t>(port)].resident_worm = -1;
  pending_port_release_.clear();
}

void FlitEngine::DeliverBranch(BranchState& b, Cycles tail_arrive) {
  ++deliveries_;
  m_host_deliveries_.Add();
  TraceAt(tail_arrive, TraceKind::kNiDeliver, *b.out_pkt, b.sink, -1);
  deliver_(b.sink, b.out_pkt, b.sink_head, tail_arrive);
}

void FlitEngine::LandFlits(Cycles now) {
  std::size_t kept = 0;
  for (InFlight& entry : in_flight_) {
    if (entry.lands > now) {
      in_flight_[kept++] = entry;
      continue;
    }
    BranchState& b = branches_[static_cast<std::size_t>(entry.branch)];
    Channel& c = channels_[static_cast<std::size_t>(b.channel)];
    if (c.sink_host != kInvalidNode || b.sink != kInvalidNode) {
      // Host ejection sink (switch host port or direct NI channel).
      if (entry.is_head) b.sink_head = entry.lands;
      ++b.sink_landed;
      if (b.sink_landed == b.len) DeliverBranch(b, entry.lands);
    } else {
      if (entry.is_head) {
        // Create the downstream resident worm.
        InputPort& ip = inputs_[static_cast<std::size_t>(c.dst_port_index)];
        IRMC_ENSURE(ip.resident_worm == -1);
        Worm w;
        w.pkt = b.out_pkt;
        w.len = b.len;
        w.head_arrive = entry.lands;
        w.port_index = c.dst_port_index;
        worms_.push_back(std::move(w));
        ip.resident_worm = static_cast<int>(worms_.size()) - 1;
        b.dst_worm = ip.resident_worm;
        m_switched_.Add();
        TraceAt(entry.lands, TraceKind::kHeadArrive, *b.out_pkt,
                SwitchOfPort(c.dst_port_index),
                c.dst_port_index % ports_);
        route_queue_.emplace_back(b.dst_worm,
                                  entry.lands + params_.route_delay);
      }
      Worm& w = worms_[static_cast<std::size_t>(b.dst_worm)];
      ++w.received;
      if (w.discarding) {
        // Every branch of this worm was fault-killed; swallow the flit
        // so the feeder drains, and free the port once the tail lands.
        w.freed = w.received;
        if (w.received >= w.len) ReleaseWormPort(w);
      }
      max_occupancy_ = std::max(
          max_occupancy_, static_cast<std::int64_t>(w.received - w.freed));
    }
  }
  in_flight_.resize(kept);
}

void FlitEngine::PumpInjections(Cycles now) {
  injecting_nodes_.ForEach([&](std::size_t node) {
    const auto n = static_cast<NodeId>(node);
    auto& q = inject_queues_[node];
    Channel& c = channels_[InjChannel(n)];
    if (c.active_branch != -1 || !c.waiting.empty()) return;
    if (q.front().second > now) return;
    // Source-side pseudo-worm: all flits available at `ready`.
    Worm w;
    w.pkt = q.front().first;
    w.len = q.front().first->WireFlits();
    w.received = w.len;
    w.routed = true;
    w.live_branches = 1;
    worms_.push_back(std::move(w));
    const int worm_id = static_cast<int>(worms_.size()) - 1;

    BranchState b;
    b.src_worm = worm_id;
    b.channel = static_cast<int>(InjChannel(n));
    b.out_pkt = q.front().first;
    b.len = worms_[static_cast<std::size_t>(worm_id)].len;
    b.start_ok = q.front().second;
    branches_.push_back(std::move(b));
    const int bid = static_cast<int>(branches_.size()) - 1;
    worms_[static_cast<std::size_t>(worm_id)].branch_ids.push_back(bid);
    c.waiting.push_back(bid);
    busy_channels_.Set(InjChannel(n));
    q.pop_front();
    if (q.empty()) injecting_nodes_.Reset(node);
  });
}

void FlitEngine::RouteWorms(Cycles now) {
  // Heads land in FIFO order and route_delay is uniform, so the queue is
  // monotone in decision time: pop from the front only.
  while (!route_queue_.empty() && route_queue_.front().second <= now) {
    const int wi = route_queue_.front().first;
    route_queue_.pop_front();
    Worm& w = worms_[static_cast<std::size_t>(wi)];
    if (w.dead) continue;  // cascade-killed while waiting for its turn
    IRMC_ENSURE(!w.routed && w.received >= 1);
    w.routed = true;
    const SwitchId sw = SwitchOfPort(w.port_index);
    const PortLoadFn load = [this](SwitchId s, PortId p) {
      return channels_[PortIdx(s, p)].Load();
    };
    std::vector<RouteBranch> decisions;
    if (drop_ != nullptr) {
      if (!TryComputeRouteBranches(*sys_, sw, w.pkt, params_.adaptive, load,
                                   decisions)) {
        // Stale header under swapped tables: consume the worm here and
        // let the retransmit layer repair the loss.
        ReportDrop(w.pkt, sw);
        w.discarding = true;
        w.freed = w.received;
        if (w.received >= w.len) ReleaseWormPort(w);
        continue;
      }
    } else {
      ComputeRouteBranches(*sys_, sw, w.pkt, params_.adaptive, load,
                           decisions);
    }
    IRMC_ENSURE(!decisions.empty());
    // Branches aimed at a link that died after the header committed to
    // it are dropped on the spot.
    std::size_t live = 0;
    for (RouteBranch& d : decisions) {
      Channel& dc = channels_[PortIdx(sw, d.port)];
      if (dc.dead_since != kNever) {
        ReportDrop(d.pkt, sw);
        continue;
      }
      decisions[live++] = std::move(d);
    }
    decisions.resize(live);
    if (decisions.empty()) {
      w.discarding = true;
      w.freed = w.received;
      if (w.received >= w.len) ReleaseWormPort(w);
      continue;
    }
    m_fanout_.Add(static_cast<std::int64_t>(decisions.size()));
    m_replications_.Add(static_cast<std::int64_t>(decisions.size()) - 1);
    TraceAt(now, TraceKind::kRoute, *w.pkt, sw,
            static_cast<std::int32_t>(decisions.size()));
    w.live_branches = static_cast<int>(decisions.size());
    for (RouteBranch& d : decisions) {
      TraceAt(now, TraceKind::kBranch, *d.pkt, sw,
              static_cast<std::int32_t>(d.port));
      BranchState b;
      b.src_worm = wi;
      b.channel = static_cast<int>(PortIdx(sw, d.port));
      b.out_pkt = std::move(d.pkt);
      b.len = w.len;
      b.start_ok = w.head_arrive + params_.route_delay + params_.xbar_delay;
      Channel& c = channels_[static_cast<std::size_t>(b.channel)];
      if (c.sink_host != kInvalidNode) b.sink = c.sink_host;
      branches_.push_back(std::move(b));
      const int bid = static_cast<int>(branches_.size()) - 1;
      worms_[static_cast<std::size_t>(wi)].branch_ids.push_back(bid);
      c.waiting.push_back(bid);
      busy_channels_.Set(static_cast<std::size_t>(b.channel));
    }
  }
}

void FlitEngine::MoveFlits(Cycles now) {
  // Ascending channel order is part of the model: a branch that frees
  // flits of worm W this cycle hands W's feeder a credit it can use this
  // same cycle only if the feeder's channel comes later in the walk, and
  // flits land next cycle in the order they move here. Dead channels
  // never appear here: FailLink empties them.
  busy_channels_.ForEach([&](std::size_t ci) {
    if (frozen_) return;  // the deadlock handler fired mid-walk
    Channel& c = channels_[ci];
    if (c.active_branch == -1 && !c.waiting.empty()) {
      // Grant the branch that has been ready longest; break same-cycle
      // ties by input port — the same engine-independent rule as the VCT
      // engine's channel pick, so arbitration (and thus every latency)
      // agrees across engines (docs/engines.md).
      std::size_t best = c.waiting.size();
      for (std::size_t i = 0; i < c.waiting.size(); ++i) {
        const BranchState& cand =
            branches_[static_cast<std::size_t>(c.waiting[i])];
        if (cand.start_ok > now) continue;
        if (best == c.waiting.size()) {
          best = i;
          continue;
        }
        const BranchState& cur =
            branches_[static_cast<std::size_t>(c.waiting[best])];
        if (cand.start_ok < cur.start_ok ||
            (cand.start_ok == cur.start_ok && ArbPort(cand) < ArbPort(cur)))
          best = i;
      }
      if (best != c.waiting.size()) {
        c.active_branch = c.waiting[best];
        c.waiting.erase(c.waiting.begin() +
                        static_cast<std::ptrdiff_t>(best));
      }
    }
    if (c.active_branch == -1) return;
    BranchState& b = branches_[static_cast<std::size_t>(c.active_branch)];
    Worm& src = worms_[static_cast<std::size_t>(b.src_worm)];
    // Flit availability at the source buffer (not a credit stall).
    if (b.consumed >= src.received) return;
    // Downstream space (credit).
    if (c.dst_port_index >= 0 && b.sink == kInvalidNode) {
      InputPort& ip = inputs_[static_cast<std::size_t>(c.dst_port_index)];
      bool stalled = false;
      if (b.dst_worm == -1) {
        if (ip.resident_worm != -1) {
          stalled = true;
          b.stall_why = "output port held by another worm";
        }
      } else {
        const Worm& dw = worms_[static_cast<std::size_t>(b.dst_worm)];
        if (dw.received - dw.freed >= ip.capacity) {
          stalled = true;
          b.stall_why = "downstream input buffer full";
        }
      }
      if (stalled) {
        ++blocked_cycles_;
        m_blocked_.Add();
        if (b.stall_len == 0) b.stall_begin = now;
        ++b.stall_len;
        if (b.stall_len > params_.deadlock_horizon)
          DeadlockTrip(now, c.active_branch);
        return;
      }
    }
    CloseStreak(b);
    const bool is_head = (b.consumed == 0);
    ++b.consumed;
    ++flits_moved_;
    ++c.flits;
    m_flits_.Add();
    const bool is_tail = (b.consumed == b.len);
    in_flight_.push_back(InFlight{c.active_branch, is_head, is_tail,
                                  now + params_.link_delay});
    if (is_tail) {
      b.done = true;
      c.active_branch = -1;
      if (c.waiting.empty()) busy_channels_.Reset(ci);
      if (--src.live_branches == 0 && src.port_index >= 0) {
        // All branches drained: free the input port at the *start of the
        // next cycle* (the tail flit leaves the buffer this cycle),
        // matching the VCT engine's slot-release timing.
        ReleaseWormPort(src);
      }
    }
    // Freed-flit accounting (buffer occupancy): freed = min consumed
    // over the worm's branches.
    int min_consumed = b.len;
    for (int obid : src.branch_ids) {
      const BranchState& other = branches_[static_cast<std::size_t>(obid)];
      if (!other.done) min_consumed = std::min(min_consumed, other.consumed);
    }
    src.freed = std::max(src.freed, std::min(min_consumed, src.received));
  });
}

void FlitEngine::CloseStreak(BranchState& b) {
  if (b.stall_len == 0) return;
  if (tracer_) {
    std::int32_t actor = -1;
    std::int32_t detail = -1;
    ChannelActor(b.channel, &actor, &detail);
    TraceAt(b.stall_begin, TraceKind::kBlockBegin, *b.out_pkt, actor, detail);
    TraceAt(b.stall_begin + b.stall_len, TraceKind::kBlockEnd, *b.out_pkt,
            actor, detail);
  }
  b.stall_len = 0;
  b.stall_why = nullptr;
}

void FlitEngine::DeadlockTrip(Cycles now, int trip_branch) {
  FlitDeadlockInfo info;
  info.now = now;
  info.horizon = params_.deadlock_horizon;
  std::string msg;
  char buf[256];
  const BranchState& trip = branches_[static_cast<std::size_t>(trip_branch)];
  std::snprintf(buf, sizeof buf,
                "worm (mcast %lld pkt %d) blocked for %lld cycles > "
                "deadlock horizon %lld at cycle %lld; blocked worms:",
                static_cast<long long>(trip.out_pkt->mcast_id),
                trip.out_pkt->pkt_index,
                static_cast<long long>(trip.stall_len),
                static_cast<long long>(params_.deadlock_horizon),
                static_cast<long long>(now));
  msg += buf;
  const int n_out = sys_->num_switches() * ports_;
  for (const BranchState& b : branches_) {
    if (b.done) continue;
    // A branch can be pending without an open stall streak when it is
    // starved of flits (upstream not sending yet) — include those too:
    // they are often the hidden links of the wait chain.
    const Worm& src = worms_[static_cast<std::size_t>(b.src_worm)];
    const bool starved = b.stall_len == 0;
    if (starved && b.consumed < src.received) continue;  // genuinely moving
    FlitDeadlockInfo::Pending pending;
    pending.mcast_id = b.out_pkt->mcast_id;
    pending.pkt_index = b.out_pkt->pkt_index;
    if (b.channel < n_out) {
      pending.sw = static_cast<SwitchId>(b.channel / ports_);
      pending.port = static_cast<PortId>(b.channel % ports_);
    } else {
      pending.inj_node = static_cast<NodeId>(b.channel - n_out);
    }
    pending.stalled = !starved;
    pending.reason = starved ? "starved of flits"
                             : (b.stall_why ? b.stall_why : "stalled");
    info.pending.push_back(pending);
    if (b.channel < n_out)
      std::snprintf(buf, sizeof buf,
                    "\n  worm (mcast %lld pkt %d) at switch %d port %d",
                    static_cast<long long>(b.out_pkt->mcast_id),
                    b.out_pkt->pkt_index, b.channel / ports_,
                    b.channel % ports_);
    else
      std::snprintf(buf, sizeof buf,
                    "\n  worm (mcast %lld pkt %d) at injection of node %d",
                    static_cast<long long>(b.out_pkt->mcast_id),
                    b.out_pkt->pkt_index, b.channel - n_out);
    msg += buf;
    if (starved)
      std::snprintf(buf, sizeof buf,
                    ": starved of flits (%d of %d consumed, %d received, "
                    "%d freed)",
                    b.consumed, b.len, src.received, src.freed);
    else
      std::snprintf(buf, sizeof buf, ": %s for %lld cycles",
                    b.stall_why ? b.stall_why : "stalled",
                    static_cast<long long>(b.stall_len));
    msg += buf;
    const Channel& c = channels_[static_cast<std::size_t>(b.channel)];
    if (c.dst_port_index >= 0) {
      const int rw =
          inputs_[static_cast<std::size_t>(c.dst_port_index)].resident_worm;
      if (rw >= 0) {
        const Worm& w = worms_[static_cast<std::size_t>(rw)];
        std::snprintf(buf, sizeof buf,
                      " (port held by worm mcast %lld pkt %d)",
                      static_cast<long long>(w.pkt->mcast_id),
                      w.pkt->pkt_index);
        msg += buf;
      }
    }
  }
  if (on_deadlock_) {
    frozen_ = true;  // set first so a re-entrant tick cannot re-trip
    on_deadlock_(info);
    return;
  }
  detail::ContractFailure("invariant", "flit worm blocked past deadlock horizon",
                          __FILE__, __LINE__, "%s", msg.c_str());
}

}  // namespace irmc
