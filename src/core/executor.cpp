#include "core/executor.hpp"

#include <algorithm>

#include "common/csr.hpp"

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

void McastDriver::Exec::Reset(std::int64_t new_id, int num_nodes) {
  id = new_id;
  start = 0;
  remaining = 0;
  nstate.assign(static_cast<std::size_t>(num_nodes), NodeState{});
  got.clear();
  worm_begin.clear();
  worm_order.clear();
  result.id = new_id;
  result.start = 0;
  result.completion = 0;
  result.num_dests = 0;
  result.deliveries.clear();
  parent = -1;
  repairs.clear();
  acked.clear();
  acked_count = 0;
  attempts = 0;
  repair_pending = false;
}

void McastDriver::Exec::IndexWorms(int num_nodes) {
  if (plan.worms.empty()) return;
  // A plan has at most one worm per destination; reserving that much
  // keeps a recycled slot from regrowing for a plan with more worms.
  worm_order.reserve(plan.dests.size());
  GroupByKey(
      static_cast<std::size_t>(num_nodes), plan.worms.size(),
      [this](std::size_t w) { return plan.worms[w].sender; }, worm_begin,
      worm_order);
}

McastDriver::Exec& McastDriver::NewExec() {
  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int>(slots_.size());
    slots_.push_back(std::make_unique<Exec>());
  }
  slot_of_.push_back(slot);
  Exec& exec = *slots_[static_cast<std::size_t>(slot)];
  exec.Reset(next_id_++, sys_->num_nodes());
  return exec;
}

McastDriver::Exec* McastDriver::Find(std::int64_t id) {
  if (id < id_base_ || id >= next_id_) return nullptr;
  const int slot = slot_of_[static_cast<std::size_t>(id - id_base_)];
  return slot < 0 ? nullptr : slots_[static_cast<std::size_t>(slot)].get();
}

void McastDriver::Retire(std::int64_t id) {
  IRMC_EXPECT(Find(id) != nullptr);
  int& slot = slot_of_[static_cast<std::size_t>(id - id_base_)];
  Exec& exec = *slots_[static_cast<std::size_t>(slot)];
  // Drop what the plan and callbacks hold now; the per-node vectors
  // keep their capacity for the slot's next multicast.
  exec.plan = McastPlan{};
  exec.done = nullptr;
  exec.delivered = nullptr;
  free_slots_.push_back(slot);
  slot = -1;
  while (!slot_of_.empty() && slot_of_.front() < 0) {
    slot_of_.pop_front();
    ++id_base_;
  }
}

std::int64_t McastDriver::Launch(McastPlan plan, Cycles when, DoneFn done,
                                 DeliveredFn delivered) {
  IRMC_EXPECT(!plan.dests.empty());
  Exec& exec = NewExec();
  exec.plan = std::move(plan);
  exec.shape = exec.plan.shape.value_or(cfg_.message);
  exec.start = when;
  exec.done = std::move(done);
  exec.delivered = std::move(delivered);
  exec.remaining = static_cast<int>(exec.plan.dests.size());
  exec.result.start = when;
  exec.result.num_dests = exec.remaining;
  exec.result.deliveries.reserve(exec.plan.dests.size());
  exec.IndexWorms(sys_->num_nodes());
  if (cfg_.resilience.enabled)
    exec.acked.assign(static_cast<std::size_t>(sys_->num_nodes()), false);
  m_.launched->Add();
  m_.dests->Add(exec.remaining);
  Exec* raw = &exec;
  engine_.ScheduleAt(when, [this, raw]() { StartSource(*raw); });
  return exec.id;
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

PacketPtr McastDriver::MakeBasePacket(const Exec& exec, int pkt_index) {
  PacketPtr pkt = network_->NewPacket();
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
    PacketPtr pkt = MakeBasePacket(exec, j);
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
      PacketPtr pkt = MakeBasePacket(exec, j);
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
    PacketPtr pkt = MakeBasePacket(exec, pkt_index);
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
  const int num_nodes = sys_->num_nodes();
  const auto& regions = exec.plan.tree_regions;
  const NodeSet whole = regions.empty()
                            ? NodeSet::FromVector(num_nodes, exec.plan.dests)
                            : NodeSet();
  const std::size_t num_regions = regions.empty() ? 1 : regions.size();

  m_.worms->Add(static_cast<std::int64_t>(num_regions));
  for (int j = 0; j < exec.shape.num_packets; ++j) {
    const Cycles dma_done = nr.io_bus.Reserve(h, dma_dur) + dma_dur;
    m_.io_dma_cycles->Add(dma_dur);
    m_.io_dma_transfers->Add();
    for (std::size_t r = 0; r < num_regions; ++r) {
      PacketPtr pkt = MakeBasePacket(exec, j);
      pkt->kind = HeaderKind::kTreeWorm;
      if (regions.empty()) {
        pkt->tree_dests = whole;
        pkt->header_flits = cfg_.headers.TreeWormFlits(num_nodes);
      } else {
        pkt->tree_dests = NodeSet::FromVector(num_nodes, regions[r]);
        pkt->header_flits = exec.plan.tree_region_header_flits[r];
      }
      network_->InjectFromNi(u, std::move(pkt), std::max(ni, dma_done));
    }
  }
}

void McastDriver::SendWormsOf(Exec& exec, NodeId sender, Cycles earliest) {
  if (exec.worm_begin.empty()) return;
  const auto s = static_cast<std::size_t>(sender);
  const int first = exec.worm_begin[s];
  const int last = exec.worm_begin[s + 1];
  if (first == last) return;
  NodeRuntime& nr = node(sender);
  const HostParams& hp = cfg_.host;
  const Cycles dma_dur = hp.DmaCycles(exec.shape.packet_flits);
  for (int i = first; i < last; ++i) {
    const int w = exec.worm_order[static_cast<std::size_t>(i)];
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
      PacketPtr pkt = MakeBasePacket(exec, j);
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
  Exec* exec = Find(pkt->mcast_id);
  if (exec == nullptr) {
    // Only a retired resilience family leaves stragglers (a redundant
    // repair still in flight when the last ack landed); the pristine
    // contract — every delivery belongs to a live multicast — stands.
    IRMC_ENSURE(cfg_.resilience.enabled);
    return;
  }
  HandlePacketAt(*exec, n, pkt, head, tail);
}

McastDriver::Exec& McastDriver::AcctOf(Exec& exec) {
  if (exec.parent < 0) return exec;
  Exec* acct = Find(exec.parent);
  IRMC_ENSURE(acct != nullptr);  // repairs retire with their parent
  return *acct;
}

void McastDriver::HandlePacketAt(Exec& exec, NodeId n, const PacketPtr& pkt,
                                 Cycles head, Cycles tail) {
  // Delivery accounting rolls up to the original multicast; `exec` (a
  // repair wave or the original itself) keeps the forwarding duties.
  Exec& acct = AcctOf(exec);
  NodeState& st = acct.nstate[static_cast<std::size_t>(n)];
  if (cfg_.resilience.enabled) {
    // Receiver dedup: repair waves over-cover (a drop report's
    // destination set is an over-estimate, and repairs re-send whole
    // messages), so the NI swallows already-accepted packets.
    const auto m = static_cast<std::size_t>(acct.shape.num_packets);
    if (acct.got.empty()) acct.got.assign(acct.nstate.size() * m, false);
    const std::size_t bit =
        static_cast<std::size_t>(n) * m + static_cast<std::size_t>(pkt->pkt_index);
    if (st.delivered || acct.got[bit]) {
      m_.r_duplicates->Add();
      return;
    }
    acct.got[bit] = true;
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
  Exec* acct = Find(acct_id);
  IRMC_ENSURE(acct != nullptr);
  Exec& exec = *acct;
  NodeState& st = exec.nstate[static_cast<std::size_t>(n)];
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
  Exec* wave = wave_id != acct_id ? Find(wave_id) : &exec;
  if (wave != nullptr) {
    if (wave->plan.scheme == SchemeKind::kUnicastBinomial) {
      if (!wave->plan.children[static_cast<std::size_t>(n)].empty())
        m_.forward_phases->Add();
      SendToChildren(*wave, n, when);
    }
    if (wave->plan.scheme == SchemeKind::kPathWorm) {
      const auto u = static_cast<std::size_t>(n);
      if (!wave->worm_begin.empty() &&
          wave->worm_begin[u] != wave->worm_begin[u + 1])
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
      engine_.ScheduleAfter(0, [this, acct_id]() { Retire(acct_id); });
    }
  }
}

void McastDriver::OnDrop(const PacketPtr& pkt, Cycles now, SwitchId where) {
  if (tracer_)
    tracer_->Record(TraceEvent{now, TraceKind::kDrop, pkt->mcast_id,
                               pkt->pkt_index, pkt->src, where});
  m_.r_drops->Add();
  Exec* exec = Find(pkt->mcast_id);
  if (exec == nullptr) return;  // family already retired
  Exec& acct = AcctOf(*exec);
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
  Exec* live = Find(id);
  if (live == nullptr) return;
  Exec& exec = *live;
  if (exec.acked[static_cast<std::size_t>(n)]) return;
  exec.acked[static_cast<std::size_t>(n)] = true;
  ++exec.acked_count;
  m_.r_acks->Add();
  if (exec.acked_count == exec.result.num_dests) CleanupFamily(id);
}

void McastDriver::RepairRound(std::int64_t id) {
  Exec* live = Find(id);
  if (live == nullptr) return;
  Exec& acct = *live;
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
  // NewExec may grow the slot vector, but Execs live behind stable
  // pointers, so `acct` stays valid.
  Exec& exec = NewExec();
  exec.parent = acct.id;
  exec.plan = std::move(plan);
  exec.shape = acct.shape;
  exec.start = engine_.Now();
  exec.remaining = static_cast<int>(missing.size());
  exec.result.start = exec.start;
  exec.result.num_dests = exec.remaining;
  exec.IndexWorms(sys_->num_nodes());
  acct.repairs.push_back(exec.id);
  StartSource(exec);
}

void McastDriver::CleanupFamily(std::int64_t id) {
  // Defer: the last ack may still be inside this family's call chain.
  engine_.ScheduleAfter(0, [this, id]() {
    Exec* exec = Find(id);
    if (exec == nullptr) return;
    for (std::int64_t r : exec->repairs)
      if (Find(r) != nullptr) Retire(r);
    Retire(id);
  });
}

}  // namespace irmc
