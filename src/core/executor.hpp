// Multicast execution: plays McastPlans on the fabric with the host/NI
// software-overhead model (paper Sections 3.1-3.2, 4.1).
//
// Per-node serially-reusable resources:
//   host CPU — o_host per message sent or received at the host level
//   NI CPU   — o_ni per message at the NI, plus the per-copy forwarding
//              cost at a smart NI
//   I/O bus  — DMA between host memory and NI, shared by sends and
//              receives (the paper's I/O-bus contention)
//
// Scheme behaviours:
//   uni-binomial — every hop is a full conventional send/receive.
//   ni-kbinomial — smart NI: on each packet arrival the NI immediately
//     enqueues replicas for the node's children (FPFS: packet j to every
//     child before packet j+1) while DMA-ing to the host in parallel.
//   tree-worm    — source performs one conventional send per packet; the
//     switches replicate; every destination does a conventional receive.
//   path-worm    — the source (and later, covered destinations) perform
//     one conventional send per planned worm; multi-phase behaviour
//     emerges from receivers forwarding after full message receipt.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "mcast/scheme.hpp"
#include "metrics/metrics.hpp"
#include "network/network_model.hpp"
#include "resilience/manager.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "topology/system.hpp"
#include "trace/tracer.hpp"

namespace irmc {

struct NodeRuntime {
  TimelineResource host_cpu;
  TimelineResource ni_cpu;
  TimelineResource io_bus;
};

struct MulticastResult {
  std::int64_t id = -1;
  Cycles start = 0;
  Cycles completion = 0;  ///< last destination's host-level delivery
  int num_dests = 0;
  /// (destination, host-level delivery time) pairs, completion order.
  std::vector<std::pair<NodeId, Cycles>> deliveries;

  Cycles Latency() const { return completion - start; }
};

/// Owns the network engine (whichever SimConfig::engine selects), the
/// per-node resources, and all in-flight multicasts.
class McastDriver {
 public:
  using DoneFn = std::function<void(const MulticastResult&)>;
  /// Per-destination notification: (destination, host delivery time).
  using DeliveredFn = std::function<void(NodeId, Cycles)>;

  /// `metrics` (also handed to the owned engine) receives the host/NI/I-O
  /// overhead accounting and per-multicast metrics — see docs/metrics.md.
  /// Null binds the driver to a registry it owns (see metrics()), so
  /// recording never depends on the caller. Both the registry and the
  /// tracer are per-trial state (each Trial owns its own), so neither
  /// forces serial trial execution.
  McastDriver(Engine& engine, const System& sys, const SimConfig& cfg,
              Tracer* tracer = nullptr, MetricsRegistry* metrics = nullptr);

  McastDriver(const McastDriver&) = delete;
  McastDriver& operator=(const McastDriver&) = delete;

  /// Start a multicast at absolute time `when`; `done` fires at the last
  /// destination's delivery, `delivered` (optional) at every
  /// destination's delivery. Returns the multicast id.
  std::int64_t Launch(McastPlan plan, Cycles when, DoneFn done,
                      DeliveredFn delivered = nullptr);

  NetworkModel& network() { return *network_; }
  /// The registry everything records into: the caller's, or the
  /// driver's own when constructed with a null registry.
  MetricsRegistry& metrics() { return metrics_; }
  NodeRuntime& node(NodeId n) {
    return nodes_[static_cast<std::size_t>(n)];
  }
  int live_multicasts() const { return static_cast<int>(live_.size()); }

  /// Non-null only when cfg.resilience.enabled (docs/resilience.md).
  ResilienceManager* resilience() { return resilience_.get(); }

 private:
  struct NodeState {
    int pkts = 0;
    Cycles last_dma = 0;
    bool delivered = false;
    /// Receiver dedup (resilience mode only): which pkt_index values this
    /// node has accepted; repeats — repair overlap — are swallowed at
    /// the NI before any resource cost.
    std::vector<bool> got;
  };
  struct Exec {
    std::int64_t id = -1;
    McastPlan plan;
    MessageShape shape;  ///< plan override or the driver's default
    Cycles start = 0;
    DoneFn done;
    DeliveredFn delivered;
    int remaining = 0;
    std::unordered_map<NodeId, NodeState> nstate;
    std::unordered_map<NodeId, std::vector<int>> worms_by_sender;
    MulticastResult result;
    // --- reliable delivery (resilience mode only) ---
    /// Repair waves set this to the original multicast they credit;
    /// delivery/dedup accounting lives in that parent Exec.
    std::int64_t parent = -1;
    std::vector<std::int64_t> repairs;  ///< repair-wave ids (parent only)
    std::vector<bool> acked;  ///< per-node ack received at the root
    int acked_count = 0;
    int attempts = 0;          ///< repair rounds launched so far
    bool repair_pending = false;  ///< a repair timer chain is running
  };

  void StartSource(Exec& exec);
  void OnDeliver(NodeId n, const PacketPtr& pkt, Cycles head, Cycles tail);
  void HandlePacketAt(Exec& exec, NodeId n, const PacketPtr& pkt,
                      Cycles head, Cycles tail);
  /// `wave_id` names the Exec whose plan carries the forwarding duties
  /// (a repair wave or `acct_id` itself); accounting is on `acct_id`.
  void HandleDelivered(std::int64_t acct_id, std::int64_t wave_id, NodeId n,
                       Cycles when);

  // --- NI reliable-delivery layer (resilience mode only) ---
  /// The Exec delivery accounting rolls up to (the wave's original).
  Exec& AcctOf(Exec& exec);
  /// Engine drop report: trace + count, then expedite the first repair.
  void OnDrop(const PacketPtr& pkt, Cycles now, SwitchId where);
  /// Out-of-band delivery ack arriving back at the root.
  void OnAck(std::int64_t id, NodeId n);
  /// One timeout round: re-plan the unacked remainder on the current
  /// System and re-send it; arms the next round with exponential
  /// backoff. No-op once everything is acked.
  void RepairRound(std::int64_t id);
  /// Plans (scheme-aware, on the *current* System) and launches one
  /// repair wave to `missing` as a child Exec crediting `acct`.
  void LaunchRepairWave(Exec& acct, std::vector<NodeId> missing);
  /// Retires a fully-acked multicast and its repair waves.
  void CleanupFamily(std::int64_t id);

  /// Conventional full-message unicast send u -> c (o_host, DMA per
  /// packet, o_ni, inject), starting no earlier than `earliest`.
  void ConventionalSendToOne(Exec& exec, NodeId u, NodeId c,
                             Cycles earliest);
  /// Send to every planned child of u, sequential at the host CPU.
  void SendToChildren(Exec& exec, NodeId u, Cycles earliest);
  /// Smart-NI source: one host send, then FPFS replication at the NI.
  void SmartSourceSend(Exec& exec);
  /// Smart-NI intermediate forwarding of one arrived packet.
  void SmartForward(Exec& exec, NodeId u, int pkt_index, Cycles ni_ready,
                    Cycles tail);
  void SendTreeWorms(Exec& exec);
  void SendWormsOf(Exec& exec, NodeId sender, Cycles earliest);

  PacketPtr MakeBasePacket(const Exec& exec, int pkt_index) const;

  void TraceHost(TraceKind kind, std::int64_t mcast_id, NodeId actor,
                 std::int32_t detail) {
    if (tracer_)
      tracer_->Record(
          TraceEvent{engine_.Now(), kind, mcast_id, 0, actor, detail});
  }

  /// Hot-path metric slots resolved once at construction.
  struct DriverMetrics {
    Counter* launched = nullptr;         ///< mcast.launched
    Counter* completed = nullptr;        ///< mcast.completed
    Histogram* latency = nullptr;        ///< mcast.latency
    Histogram* dests = nullptr;          ///< mcast.dests
    Counter* worms = nullptr;            ///< mcast.worms
    Counter* forward_phases = nullptr;   ///< mcast.forward_phases
    Counter* host_cycles = nullptr;      ///< host.cycles
    Counter* host_sends = nullptr;       ///< host.sends
    Counter* ni_cycles = nullptr;        ///< ni.cycles
    Counter* ni_forward_copies = nullptr;///< ni.forward_copies
    Counter* io_dma_cycles = nullptr;    ///< io.dma_cycles
    Counter* io_dma_transfers = nullptr; ///< io.dma_transfers
    // Resilience family (resolved only when cfg.resilience.enabled).
    Counter* r_drops = nullptr;       ///< resilience.drops
    Counter* r_retransmits = nullptr; ///< resilience.retransmits
    Counter* r_duplicates = nullptr;  ///< resilience.duplicates
    Counter* r_acks = nullptr;        ///< resilience.acks
    Counter* r_degraded = nullptr;    ///< resilience.degraded_deliveries
  };

  Engine& engine_;
  const System* sys_;  ///< re-pointed on Autonet reconfiguration
  SimConfig cfg_;
  Tracer* tracer_;
  /// Set only when constructed without a registry.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry& metrics_;
  DriverMetrics m_;
  std::vector<NodeRuntime> nodes_;
  std::unique_ptr<NetworkModel> network_;
  std::unique_ptr<ResilienceManager> resilience_;
  std::unordered_map<std::int64_t, std::unique_ptr<Exec>> live_;
  std::int64_t next_id_ = 0;
};

}  // namespace irmc
