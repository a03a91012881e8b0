#include "core/executor.hpp"

#include <algorithm>

namespace irmc {

McastDriver::McastDriver(Engine& engine, const System& sys,
                         const SimConfig& cfg, Tracer* tracer,
                         MetricsRegistry* metrics)
    : engine_(engine),
      sys_(&sys),
      cfg_(cfg),
      tracer_(tracer),
      owned_metrics_(metrics ? nullptr : std::make_unique<MetricsRegistry>()),
      metrics_(metrics ? *metrics : *owned_metrics_) {
  m_.launched = &metrics_.GetCounter("mcast.launched");
  m_.completed = &metrics_.GetCounter("mcast.completed");
  m_.latency = &metrics_.GetHistogram("mcast.latency");
  m_.dests = &metrics_.GetHistogram("mcast.dests");
  m_.worms = &metrics_.GetCounter("mcast.worms");
  m_.forward_phases = &metrics_.GetCounter("mcast.forward_phases");
  m_.host_cycles = &metrics_.GetCounter("host.cycles");
  m_.host_sends = &metrics_.GetCounter("host.sends");
  m_.ni_cycles = &metrics_.GetCounter("ni.cycles");
  m_.ni_forward_copies = &metrics_.GetCounter("ni.forward_copies");
  m_.io_dma_cycles = &metrics_.GetCounter("io.dma_cycles");
  m_.io_dma_transfers = &metrics_.GetCounter("io.dma_transfers");
  nodes_.resize(static_cast<std::size_t>(sys.num_nodes()));
  network_ = MakeNetworkModel(
      cfg.engine, engine, sys, cfg.net,
      [this](NodeId n, const PacketPtr& pkt, Cycles head, Cycles tail) {
        OnDeliver(n, pkt, head, tail);
      },
      metrics_, tracer);
  if (cfg_.resilience.enabled) {
    m_.r_drops = &metrics_.GetCounter("resilience.drops");
    m_.r_retransmits = &metrics_.GetCounter("resilience.retransmits");
    m_.r_duplicates = &metrics_.GetCounter("resilience.duplicates");
    m_.r_acks = &metrics_.GetCounter("resilience.acks");
    m_.r_degraded = &metrics_.GetCounter("resilience.degraded_deliveries");
    network_->SetDropHandler(
        [this](const PacketPtr& pkt, Cycles now, SwitchId where) {
          OnDrop(pkt, now, where);
        });
    resilience_ = std::make_unique<ResilienceManager>(
        engine, *network_, sys, cfg_, tracer, metrics_,
        [this](const System& s) { sys_ = &s; });
  }
}

std::int64_t McastDriver::Launch(McastPlan plan, Cycles when, DoneFn done,
                                 DeliveredFn delivered) {
  IRMC_EXPECT(!plan.dests.empty());
  const std::int64_t id = next_id_++;
  auto exec = std::make_unique<Exec>();
  exec->id = id;
  exec->plan = std::move(plan);
  exec->shape = exec->plan.shape.value_or(cfg_.message);
  exec->start = when;
  exec->done = std::move(done);
  exec->delivered = std::move(delivered);
  exec->remaining = static_cast<int>(exec->plan.dests.size());
  exec->result.id = id;
  exec->result.start = when;
  exec->result.num_dests = exec->remaining;
  for (std::size_t w = 0; w < exec->plan.worms.size(); ++w)
    exec->worms_by_sender[exec->plan.worms[w].sender].push_back(
        static_cast<int>(w));
  if (cfg_.resilience.enabled)
    exec->acked.assign(static_cast<std::size_t>(sys_->num_nodes()), false);
  m_.launched->Add();
  m_.dests->Add(exec->remaining);
  Exec* raw = exec.get();
  live_.emplace(id, std::move(exec));
  engine_.ScheduleAt(when, [this, raw]() { StartSource(*raw); });
  return id;
}

void McastDriver::StartSource(Exec& exec) {
  switch (exec.plan.scheme) {
    case SchemeKind::kUnicastBinomial:
      SendToChildren(exec, exec.plan.root, engine_.Now());
      break;
    case SchemeKind::kNiKBinomial:
      SmartSourceSend(exec);
      break;
    case SchemeKind::kTreeWorm:
      SendTreeWorms(exec);
      break;
    case SchemeKind::kPathWorm:
      SendWormsOf(exec, exec.plan.root, engine_.Now());
      break;
  }
}

PacketPtr McastDriver::MakeBasePacket(const Exec& exec, int pkt_index) const {
  auto pkt = std::make_shared<Packet>();
  pkt->mcast_id = exec.id;
  pkt->pkt_index = pkt_index;
  pkt->num_pkts = exec.shape.num_packets;
  pkt->src = exec.plan.root;
  pkt->mcast_start = exec.start;
  pkt->data_flits = exec.shape.packet_flits;
  return pkt;
}

void McastDriver::ConventionalSendToOne(Exec& exec, NodeId u, NodeId c,
                                        Cycles earliest) {
  TraceHost(TraceKind::kSendStart, exec.id, u, c);
  NodeRuntime& nr = node(u);
  const HostParams& hp = cfg_.host;
  const Cycles h = nr.host_cpu.Reserve(earliest, hp.o_host) + hp.o_host;
  const Cycles ni = nr.ni_cpu.Reserve(h, hp.o_ni) + hp.o_ni;
  const Cycles dma_dur = hp.DmaCycles(exec.shape.packet_flits);
  m_.host_sends->Add();
  m_.host_cycles->Add(hp.o_host);
  m_.ni_cycles->Add(hp.o_ni);
  for (int j = 0; j < exec.shape.num_packets; ++j) {
    const Cycles dma_done = nr.io_bus.Reserve(h, dma_dur) + dma_dur;
    m_.io_dma_cycles->Add(dma_dur);
    m_.io_dma_transfers->Add();
    auto pkt = MakeBasePacket(exec, j);
    pkt->kind = HeaderKind::kUnicast;
    pkt->uni_dest = c;
    pkt->header_flits = cfg_.headers.UnicastFlits();
    network_->InjectFromNi(u, std::move(pkt), std::max(ni, dma_done));
  }
}

void McastDriver::SendToChildren(Exec& exec, NodeId u, Cycles earliest) {
  const auto& kids = exec.plan.children[static_cast<std::size_t>(u)];
  for (NodeId c : kids) ConventionalSendToOne(exec, u, c, earliest);
}

void McastDriver::SmartSourceSend(Exec& exec) {
  const NodeId u = exec.plan.root;
  TraceHost(TraceKind::kSendStart, exec.id, u, -1);
  NodeRuntime& nr = node(u);
  const HostParams& hp = cfg_.host;
  const Cycles h = nr.host_cpu.Reserve(engine_.Now(), hp.o_host) + hp.o_host;
  const Cycles ni = nr.ni_cpu.Reserve(h, hp.o_ni) + hp.o_ni;
  const Cycles dma_dur = hp.DmaCycles(exec.shape.packet_flits);
  m_.host_sends->Add();
  m_.host_cycles->Add(hp.o_host);
  m_.ni_cycles->Add(hp.o_ni);
  const auto& kids = exec.plan.children[static_cast<std::size_t>(u)];
  for (int j = 0; j < exec.shape.num_packets; ++j) {
    const Cycles dma_done = nr.io_bus.Reserve(h, dma_dur) + dma_dur;
    m_.io_dma_cycles->Add(dma_dur);
    m_.io_dma_transfers->Add();
    for (NodeId c : kids) {
      const Cycles ready = nr.ni_cpu.Reserve(std::max(ni, dma_done),
                                             hp.ni_forward_overhead) +
                           hp.ni_forward_overhead;
      m_.ni_cycles->Add(hp.ni_forward_overhead);
      m_.ni_forward_copies->Add();
      auto pkt = MakeBasePacket(exec, j);
      pkt->kind = HeaderKind::kUnicast;
      pkt->uni_dest = c;
      pkt->header_flits = cfg_.headers.UnicastFlits();
      network_->InjectFromNi(u, std::move(pkt), ready);
    }
  }
}

void McastDriver::SmartForward(Exec& exec, NodeId u, int pkt_index,
                               Cycles ni_ready, Cycles tail) {
  const auto& kids = exec.plan.children[static_cast<std::size_t>(u)];
  if (kids.empty()) return;
  NodeRuntime& nr = node(u);
  const HostParams& hp = cfg_.host;
  for (NodeId c : kids) {
    // The replica can leave once the packet has fully arrived at the NI
    // and the NI processor has enqueued the copy.
    const Cycles ready = nr.ni_cpu.Reserve(std::max(ni_ready, tail),
                                           hp.ni_forward_overhead) +
                         hp.ni_forward_overhead;
    m_.ni_cycles->Add(hp.ni_forward_overhead);
    m_.ni_forward_copies->Add();
    auto pkt = MakeBasePacket(exec, pkt_index);
    pkt->kind = HeaderKind::kUnicast;
    pkt->uni_dest = c;
    pkt->header_flits = cfg_.headers.UnicastFlits();
    network_->InjectFromNi(u, std::move(pkt), ready);
  }
}

void McastDriver::SendTreeWorms(Exec& exec) {
  const NodeId u = exec.plan.root;
  TraceHost(TraceKind::kSendStart, exec.id, u, -1);
  NodeRuntime& nr = node(u);
  const HostParams& hp = cfg_.host;
  const Cycles h = nr.host_cpu.Reserve(engine_.Now(), hp.o_host) + hp.o_host;
  const Cycles ni = nr.ni_cpu.Reserve(h, hp.o_ni) + hp.o_ni;
  const Cycles dma_dur = hp.DmaCycles(exec.shape.packet_flits);
  m_.host_sends->Add();
  m_.host_cycles->Add(hp.o_host);
  m_.ni_cycles->Add(hp.o_ni);

  // Default: one worm addressing the full set; chunked plans carry one
  // region (and header size) per worm. All worms leave back to back —
  // still a single phase, one host send overhead.
  struct Region {
    NodeSet dests;
    int header_flits;
  };
  std::vector<Region> regions;
  if (exec.plan.tree_regions.empty()) {
    regions.push_back(
        Region{NodeSet::FromVector(sys_->num_nodes(), exec.plan.dests),
               cfg_.headers.TreeWormFlits(sys_->num_nodes())});
  } else {
    for (std::size_t r = 0; r < exec.plan.tree_regions.size(); ++r)
      regions.push_back(
          Region{NodeSet::FromVector(sys_->num_nodes(),
                                     exec.plan.tree_regions[r]),
                 exec.plan.tree_region_header_flits[r]});
  }

  m_.worms->Add(static_cast<std::int64_t>(regions.size()));
  for (int j = 0; j < exec.shape.num_packets; ++j) {
    const Cycles dma_done = nr.io_bus.Reserve(h, dma_dur) + dma_dur;
    m_.io_dma_cycles->Add(dma_dur);
    m_.io_dma_transfers->Add();
    for (const Region& region : regions) {
      auto pkt = MakeBasePacket(exec, j);
      pkt->kind = HeaderKind::kTreeWorm;
      pkt->tree_dests = region.dests;
      pkt->header_flits = region.header_flits;
      network_->InjectFromNi(u, std::move(pkt), std::max(ni, dma_done));
    }
  }
}

void McastDriver::SendWormsOf(Exec& exec, NodeId sender, Cycles earliest) {
  auto it = exec.worms_by_sender.find(sender);
  if (it == exec.worms_by_sender.end()) return;
  NodeRuntime& nr = node(sender);
  const HostParams& hp = cfg_.host;
  const Cycles dma_dur = hp.DmaCycles(exec.shape.packet_flits);
  for (int w : it->second) {
    const auto& worm = exec.plan.worms[static_cast<std::size_t>(w)];
    // Each worm is a separate message-level send at the sender.
    TraceHost(TraceKind::kSendStart, exec.id, sender, w);
    const Cycles h = nr.host_cpu.Reserve(earliest, hp.o_host) + hp.o_host;
    const Cycles ni = nr.ni_cpu.Reserve(h, hp.o_ni) + hp.o_ni;
    m_.worms->Add();
    m_.host_sends->Add();
    m_.host_cycles->Add(hp.o_host);
    m_.ni_cycles->Add(hp.o_ni);
    for (int j = 0; j < exec.shape.num_packets; ++j) {
      const Cycles dma_done = nr.io_bus.Reserve(h, dma_dur) + dma_dur;
      m_.io_dma_cycles->Add(dma_dur);
      m_.io_dma_transfers->Add();
      auto pkt = MakeBasePacket(exec, j);
      pkt->kind = HeaderKind::kPathWorm;
      pkt->path = worm.route;
      pkt->path_cursor = 0;
      pkt->header_flits = worm.header_flits;
      network_->InjectFromNi(sender, std::move(pkt), std::max(ni, dma_done));
    }
  }
}

void McastDriver::OnDeliver(NodeId n, const PacketPtr& pkt, Cycles head,
                            Cycles tail) {
  auto it = live_.find(pkt->mcast_id);
  if (it == live_.end()) {
    // Only a retired resilience family leaves stragglers (a redundant
    // repair still in flight when the last ack landed); the pristine
    // contract — every delivery belongs to a live multicast — stands.
    IRMC_ENSURE(cfg_.resilience.enabled);
    return;
  }
  HandlePacketAt(*it->second, n, pkt, head, tail);
}

McastDriver::Exec& McastDriver::AcctOf(Exec& exec) {
  if (exec.parent < 0) return exec;
  auto it = live_.find(exec.parent);
  IRMC_ENSURE(it != live_.end());  // repairs retire with their parent
  return *it->second;
}

void McastDriver::HandlePacketAt(Exec& exec, NodeId n, const PacketPtr& pkt,
                                 Cycles head, Cycles tail) {
  // Delivery accounting rolls up to the original multicast; `exec` (a
  // repair wave or the original itself) keeps the forwarding duties.
  Exec& acct = AcctOf(exec);
  NodeState& st = acct.nstate[n];
  if (cfg_.resilience.enabled) {
    // Receiver dedup: repair waves over-cover (a drop report's
    // destination set is an over-estimate, and repairs re-send whole
    // messages), so the NI swallows already-accepted packets.
    if (st.got.empty())
      st.got.assign(static_cast<std::size_t>(acct.shape.num_packets), false);
    if (st.delivered || st.got[static_cast<std::size_t>(pkt->pkt_index)]) {
      m_.r_duplicates->Add();
      return;
    }
    st.got[static_cast<std::size_t>(pkt->pkt_index)] = true;
  }
  const bool first = (st.pkts == 0);
  ++st.pkts;
  IRMC_ENSURE(st.pkts <= acct.shape.num_packets);
  NodeRuntime& nr = node(n);
  const HostParams& hp = cfg_.host;

  // Per-message NI receive overhead on the first packet.
  const Cycles ni_done =
      first ? nr.ni_cpu.Reserve(head, hp.o_ni) + hp.o_ni : head;
  if (first) m_.ni_cycles->Add(hp.o_ni);

  // Smart-NI forwarding happens at the NI, before/parallel to host DMA.
  // A forwarding node's phase costs both the receive and the send o_ni
  // (paper Section 4.2.1: "every communication phase incurs a receive
  // overhead of o_n and a send overhead of o_n"); the send-side setup is
  // per message, on the first packet.
  if (exec.plan.scheme == SchemeKind::kNiKBinomial &&
      !exec.plan.children[static_cast<std::size_t>(n)].empty()) {
    if (hp.ni_discipline == NiDiscipline::kFpfs) {
      const Cycles fwd_ready =
          first ? nr.ni_cpu.Reserve(ni_done, hp.o_ni) + hp.o_ni : ni_done;
      if (first) m_.ni_cycles->Add(hp.o_ni);
      SmartForward(exec, n, pkt->pkt_index, fwd_ready, tail);
    } else if (st.pkts == exec.shape.num_packets) {
      // Store-and-forward at message granularity: every packet's copies
      // are enqueued only once the whole message is at the NI (the
      // baseline FPFS was shown to beat).
      const Cycles fwd_ready = nr.ni_cpu.Reserve(ni_done, hp.o_ni) + hp.o_ni;
      m_.ni_cycles->Add(hp.o_ni);
      for (int j = 0; j < exec.shape.num_packets; ++j)
        SmartForward(exec, n, j, fwd_ready, tail);
    }
  }

  // DMA the packet up to host memory (packet fully at the NI first).
  const Cycles dma_dur = hp.DmaCycles(exec.shape.packet_flits);
  const Cycles dma_done =
      nr.io_bus.Reserve(std::max(tail, ni_done), dma_dur) + dma_dur;
  st.last_dma = std::max(st.last_dma, dma_done);
  m_.io_dma_cycles->Add(dma_dur);
  m_.io_dma_transfers->Add();

  if (st.pkts == acct.shape.num_packets) {
    // Whole message in host memory: per-message host receive overhead.
    const Cycles delivered =
        nr.host_cpu.Reserve(st.last_dma, hp.o_host) + hp.o_host;
    m_.host_cycles->Add(hp.o_host);
    const std::int64_t acct_id = acct.id;
    const std::int64_t wave_id = exec.id;
    engine_.ScheduleAt(delivered, [this, acct_id, wave_id, n, delivered]() {
      HandleDelivered(acct_id, wave_id, n, delivered);
    });
  }
}

void McastDriver::HandleDelivered(std::int64_t acct_id, std::int64_t wave_id,
                                  NodeId n, Cycles when) {
  auto it = live_.find(acct_id);
  IRMC_ENSURE(it != live_.end());
  Exec& exec = *it->second;
  NodeState& st = exec.nstate[n];
  IRMC_ENSURE(!st.delivered);
  st.delivered = true;
  TraceHost(TraceKind::kHostDeliver, acct_id, n, -1);
  exec.result.deliveries.emplace_back(n, when);
  exec.result.completion = std::max(exec.result.completion, when);
  --exec.remaining;
  if (exec.delivered) exec.delivered(n, when);
  if (cfg_.resilience.enabled) {
    if (resilience_ && resilience_->degraded())
      m_.r_degraded->Add();
    // Out-of-band delivery ack back to the root (modelled reliable).
    engine_.ScheduleAt(when + cfg_.resilience.ack_delay,
                       [this, acct_id, n]() { OnAck(acct_id, n); });
  }

  // Forwarding duties after full receipt, per the plan of the wave whose
  // packet completed the message (for a repair, its re-planned subtree).
  // Each host-level forwarding step after a delivery is one
  // communication phase of the scheme.
  Exec* wave = &exec;
  if (wave_id != acct_id) {
    auto wit = live_.find(wave_id);
    wave = wit != live_.end() ? wit->second.get() : nullptr;
  }
  if (wave != nullptr) {
    if (wave->plan.scheme == SchemeKind::kUnicastBinomial) {
      if (!wave->plan.children[static_cast<std::size_t>(n)].empty())
        m_.forward_phases->Add();
      SendToChildren(*wave, n, when);
    }
    if (wave->plan.scheme == SchemeKind::kPathWorm) {
      if (wave->worms_by_sender.count(n) > 0)
        m_.forward_phases->Add();
      SendWormsOf(*wave, n, when);
    }
  }

  if (exec.remaining == 0) {
    m_.completed->Add();
    m_.latency->Add(exec.result.completion - exec.result.start);
    if (exec.done) exec.done(exec.result);
    // Defer destruction: we may still be inside this exec's call chain.
    // In resilience mode the family instead retires when the last ack
    // returns to the root (CleanupFamily).
    if (!cfg_.resilience.enabled) {
      engine_.ScheduleAfter(0, [this, acct_id]() { live_.erase(acct_id); });
    }
  }
}

void McastDriver::OnDrop(const PacketPtr& pkt, Cycles now, SwitchId where) {
  if (tracer_)
    tracer_->Record(TraceEvent{now, TraceKind::kDrop, pkt->mcast_id,
                               pkt->pkt_index, pkt->src, where});
  m_.r_drops->Add();
  auto it = live_.find(pkt->mcast_id);
  if (it == live_.end()) return;  // family already retired
  Exec& acct = AcctOf(*it->second);
  if (acct.repair_pending) return;  // a repair chain is already running
  acct.repair_pending = true;
  // Expedite the first repair: wait out fault detection and any pending
  // reconfiguration (a repair planned on the broken tables would mostly
  // drop again), then re-send. Later rounds come from the backoff timer.
  Cycles at = now + cfg_.resilience.detection_delay;
  if (resilience_) at = std::max(at, resilience_->SafeRepairTime(now));
  const std::int64_t id = acct.id;
  engine_.ScheduleAt(at, [this, id]() { RepairRound(id); });
}

void McastDriver::OnAck(std::int64_t id, NodeId n) {
  auto it = live_.find(id);
  if (it == live_.end()) return;
  Exec& exec = *it->second;
  if (exec.acked[static_cast<std::size_t>(n)]) return;
  exec.acked[static_cast<std::size_t>(n)] = true;
  ++exec.acked_count;
  m_.r_acks->Add();
  if (exec.acked_count == exec.result.num_dests) CleanupFamily(id);
}

void McastDriver::RepairRound(std::int64_t id) {
  auto it = live_.find(id);
  if (it == live_.end()) return;
  Exec& acct = *it->second;
  // Unacked = possibly-lost. A destination that delivered but whose ack
  // is still in flight gets harmlessly re-covered (its NI dedups).
  std::vector<NodeId> missing;
  for (NodeId n : acct.plan.dests)
    if (!acct.acked[static_cast<std::size_t>(n)]) missing.push_back(n);
  if (missing.empty()) return;  // chain ends; family retires on last ack
  ++acct.attempts;
  IRMC_ENSURE(acct.attempts <= cfg_.resilience.max_retransmits &&
              "resilience: retransmit cap exceeded — faults outran recovery");
  m_.r_retransmits->Add();
  LaunchRepairWave(acct, std::move(missing));
  // Next round after an exponentially backed-off timeout (no-op once
  // everything acks).
  const Cycles wait = cfg_.resilience.retransmit_timeout
                      << std::min(acct.attempts - 1, 20);
  engine_.ScheduleAfter(wait, [this, id]() { RepairRound(id); });
}

void McastDriver::LaunchRepairWave(Exec& acct, std::vector<NodeId> missing) {
  // Scheme-aware repair: re-plan on the *current* System (post-swap
  // tables), so a k-binomial repair is a fresh subtree over the missing
  // set and a worm repair is a re-planned, re-injected worm.
  const auto scheme = MakeScheme(acct.plan.scheme, cfg_.host);
  McastPlan plan =
      scheme->Plan(*sys_, acct.plan.root, missing, acct.shape, cfg_.headers);
  plan.shape = acct.shape;
  const std::int64_t id = next_id_++;
  auto exec = std::make_unique<Exec>();
  exec->id = id;
  exec->parent = acct.id;
  exec->plan = std::move(plan);
  exec->shape = acct.shape;
  exec->start = engine_.Now();
  exec->remaining = static_cast<int>(missing.size());
  exec->result.id = id;
  exec->result.start = exec->start;
  exec->result.num_dests = exec->remaining;
  for (std::size_t w = 0; w < exec->plan.worms.size(); ++w)
    exec->worms_by_sender[exec->plan.worms[w].sender].push_back(
        static_cast<int>(w));
  acct.repairs.push_back(id);
  Exec* raw = exec.get();
  live_.emplace(id, std::move(exec));
  StartSource(*raw);
}

void McastDriver::CleanupFamily(std::int64_t id) {
  // Defer: the last ack may still be inside this family's call chain.
  engine_.ScheduleAfter(0, [this, id]() {
    auto it = live_.find(id);
    if (it == live_.end()) return;
    for (std::int64_t r : it->second->repairs) live_.erase(r);
    live_.erase(it);
  });
}

}  // namespace irmc
