// NetworkModel: the abstract contract every network engine implements.
//
// The repository carries two engines for the same switch fabric physics:
//
//  * Fabric (fabric.hpp) — packet-granular virtual cut-through. O(hops)
//    events per packet; exact when input buffers hold at least one
//    packet. The default, and the engine behind every paper figure.
//  * FlitEngine (flit_engine.hpp) — flit-by-flit wormhole simulation
//    with finite per-port buffers and credit backpressure. O(flits)
//    work; the only engine that can express true wormhole blocking when
//    buffers are smaller than a packet.
//
// Both co-simulate with the shared `sim` event kernel: injections carry
// a `ready` cycle (data present at the NI), deliveries fire the caller's
// callback with exact head/tail arrival cycles, and the host/NI
// `TimelineResource` timing of core/executor interleaves correctly with
// either engine. See docs/engines.md for the full contract and when
// each engine is valid.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "network/packet.hpp"

namespace irmc {

class Engine;
class MetricsRegistry;
class System;
class Tracer;

/// Per-channel load summary (switch output channels and injections).
struct LinkLoadReport {
  SwitchId sw = kInvalidSwitch;  ///< owning switch; kInvalidSwitch for an
                                 ///< injection channel
  PortId port = kInvalidPort;
  NodeId node = kInvalidNode;  ///< set for injections and host ejections
  bool to_host = false;
  std::int64_t flits = 0;
  double utilization = 0.0;  ///< busy cycles / elapsed cycles
};

struct NetParams {
  Cycles link_delay = 1;   ///< per-flit wire propagation
  Cycles route_delay = 1;  ///< header decode + route decision
  Cycles xbar_delay = 1;   ///< input buffer -> output port
  int input_slots = 1;     ///< input buffer capacity in packets (VCT)
  /// Flit engine per-port input buffer capacity, in flits. For
  /// VCT-equivalence (and, for multidestination worms, deadlock
  /// freedom — an unabsorbed worm couples its tree branches through the
  /// shared buffer, a dependency up*/down* does not order) this must be
  /// at least one full worm *including header flits*, i.e. strictly
  /// more than the 128-flit data payload. The default leaves headroom
  /// above the default packet plus the largest default-config header.
  int buffer_flits = 256;
  bool adaptive = true;    ///< pick least-loaded candidate port
  bool record_routes = false;  ///< per-packet hop logs (tests/examples)
  /// Flit engine only: a worm continuously blocked on one channel for
  /// more than this many cycles trips the deadlock check (the failure
  /// names the stuck worms and the ports they block on).
  Cycles deadlock_horizon = 1'000'000;
};

/// Which engine a SimConfig selects (CLI `--engine vct|flit`).
enum class EngineKind : std::uint8_t { kVct, kFlit };

const char* ToString(EngineKind kind);
/// Parses "vct"/"flit"; leaves `out` untouched and returns false
/// otherwise.
bool EngineKindFromString(const std::string& name, EngineKind* out);

/// Abstract network engine. Implementations are injected with a deliver
/// callback at construction and schedule all activity on the shared
/// event kernel, so host/NI resources and the network advance on one
/// timeline.
class NetworkModel {
 public:
  /// deliver(node, packet, head_arrive, tail_arrive) fires when a packet
  /// finishes arriving at a node's network interface.
  using DeliverFn =
      std::function<void(NodeId, const PacketPtr&, Cycles, Cycles)>;

  /// drop(packet, time, sw) fires when a fault truncates a packet the
  /// engine can no longer deliver: its worm crossed a link that went
  /// down, it was queued behind a dead channel, or (post-reconfig) its
  /// header no longer routes under the swapped-in tables. `sw` is the
  /// switch where it died (kInvalidSwitch when it never left its
  /// injection queue). The packet's destination set is an over-estimate
  /// of what was lost — some branches of a multidestination worm may
  /// already have delivered — so the consumer (the NI retransmit layer)
  /// must dedup. Without a handler installed the engine treats an
  /// unroutable packet as a contract violation and aborts, preserving
  /// the pristine engines' behavior.
  using DropFn = std::function<void(const PacketPtr&, Cycles, SwitchId)>;

  virtual ~NetworkModel() = default;

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  /// Queue a packet for injection from node n's NI into its switch. The
  /// transmission begins once the injection channel is free, downstream
  /// buffer space permits, and `ready` has passed (data present at the
  /// NI).
  virtual void InjectFromNi(NodeId n, PacketPtr pkt, Cycles ready) = 0;

  /// Packets queued or in flight on node n's injection channel.
  virtual int InjectionBacklog(NodeId n) const = 0;

  /// Total packets currently queued on all channels (saturation metric).
  virtual std::int64_t TotalBacklog() const = 0;

  /// Total flits that entered any channel (per-hop accounting).
  virtual std::int64_t flits_sent() const = 0;

  /// Load report for every wired channel, as of time `now`. Switch
  /// output channels first (in (switch, port) order), then injections.
  virtual std::vector<LinkLoadReport> LinkReports(Cycles now) const = 0;

  /// Highest switch-to-switch link utilization (hot-spot metric).
  double MaxLinkUtilization(Cycles now) const;

  /// Folds end-of-run channel state into the engine's metrics registry.
  /// Call once when the trial's run ends.
  virtual void CollectMetrics(Cycles now) = 0;

  /// Installs the fault-drop handler (see DropFn). Engines only take
  /// the drop path — instead of aborting on unroutable packets — when a
  /// handler is present.
  void SetDropHandler(DropFn drop) { drop_ = std::move(drop); }

  /// Marks the bidirectional link at (sw, port) dead as of the current
  /// cycle: queued transmissions on it are dropped, in-flight worms
  /// whose tail has not yet cleared the wire are truncated, and nothing
  /// further is ever granted the channel. Both directions die together.
  virtual void FailLink(SwitchId sw, PortId port) = 0;

  /// Atomically swaps the routing state (BFS tree, up*/down*
  /// orientation, routing tables, reachability) to `sys` — the Autonet
  /// reconfiguration step. `sys` must describe the same
  /// switches x ports shape (a degraded copy of the original graph);
  /// packets routed after the swap use the new tables, worms already
  /// holding channels keep them.
  virtual void SwapSystem(const System& sys) = 0;

 protected:
  NetworkModel() = default;

  DropFn drop_;  ///< null = pristine contract (unroutable packets abort)
};

/// Constructs the engine selected by `kind` on the shared event kernel.
/// This is the only place outside src/network that needs to know the
/// concrete engine types.
std::unique_ptr<NetworkModel> MakeNetworkModel(
    EngineKind kind, Engine& engine, const System& sys,
    const NetParams& params, NetworkModel::DeliverFn deliver,
    MetricsRegistry& metrics, Tracer* tracer = nullptr);

}  // namespace irmc
