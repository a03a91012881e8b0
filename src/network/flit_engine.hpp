// Flit-level wormhole/cut-through engine.
//
// A genuinely flit-by-flit simulation of the same switch fabric: per
// input-port flit buffers with credit backpressure, one flit per cycle
// per channel, asynchronous replication (each branch of a
// multidestination worm drains the input buffer at its own rate; a flit
// is freed once every branch has consumed it). With buffers of at least
// one packet this agrees exactly with the packet-granular VCT engine on
// uncontended traffic — tests/test_engine_xcheck asserts that for all
// four schemes — and with smaller buffers it exhibits true wormhole
// blocking, which the VCT engine cannot express.
//
// The engine is cycle-stepped but event-driven: each active cycle is one
// event on the shared `sim` kernel, so host/NI `TimelineResource` timing
// from core/executor interleaves correctly, and the engine goes quiet
// (no events at all) whenever the network is empty. Routing decisions
// come from the shared route_logic layer, so port selection — including
// least-loaded adaptive selection — is identical to the Fabric's.
//
// Deadlock trip: up*/down* routing is deadlock-free, so a worm that
// stays credit-blocked on one channel for more than
// NetParams::deadlock_horizon cycles indicates a broken routing state
// (or a genuinely cyclic custom plan); the engine aborts with a report
// naming every stuck worm and the port it blocks on.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "metrics/metrics.hpp"
#include "network/network_model.hpp"
#include "network/packet.hpp"
#include "sim/engine.hpp"
#include "topology/system.hpp"
#include "trace/tracer.hpp"

namespace irmc {

/// Snapshot handed to a deadlock handler when a worm blows past the
/// deadlock horizon: every pending branch with where it sits and why it
/// is not moving. Mirrors the text report the default (aborting) trip
/// prints; the static analyzer's soundness harness consumes it to match
/// dynamic trips against static findings.
struct FlitDeadlockInfo {
  Cycles now = 0;
  Cycles horizon = 0;
  struct Pending {
    std::int64_t mcast_id = -1;
    int pkt_index = 0;
    /// Switch-channel position (sw/port), or injection source when
    /// sw == kInvalidSwitch (then inj_node is set).
    SwitchId sw = kInvalidSwitch;
    PortId port = kInvalidPort;
    NodeId inj_node = kInvalidNode;
    /// True for an open credit-stall streak; false for a branch merely
    /// starved of flits by its upstream.
    bool stalled = false;
    const char* reason = nullptr;
  };
  std::vector<Pending> pending;
};

class FlitEngine final : public NetworkModel {
 public:
  /// `metrics` receives `flit.*` counters/histograms — the same
  /// catalogue as the Fabric's `fabric.*` family, plus flit-only series
  /// (cycles stepped, buffer-occupancy high-water); see docs/metrics.md.
  /// `tracer` (optional) receives the same event kinds as the Fabric,
  /// including kBlockBegin/kBlockEnd pairs per credit-stall streak whose
  /// durations sum exactly to `flit.blocked_cycles`.
  FlitEngine(Engine& engine, const System& sys, const NetParams& params,
             DeliverFn deliver, MetricsRegistry& metrics,
             Tracer* tracer = nullptr);

  void InjectFromNi(NodeId n, PacketPtr pkt, Cycles ready) override;

  int InjectionBacklog(NodeId n) const override;

  std::int64_t TotalBacklog() const override;

  std::int64_t flits_sent() const override { return flits_moved_; }

  std::vector<LinkLoadReport> LinkReports(Cycles now) const override;

  void CollectMetrics(Cycles now) override;

  /// Cycles actually stepped (idle gaps cost nothing).
  std::int64_t cycles_stepped() const { return ticks_; }

  /// Installs a deadlock handler. By default a worm blocked past the
  /// horizon aborts the process with a full report; with a handler the
  /// engine instead calls it once and freezes (drops every future tick),
  /// so a test harness can observe the trip and keep the process alive.
  using DeadlockHandler = std::function<void(const FlitDeadlockInfo&)>;
  void SetDeadlockHandler(DeadlockHandler handler) {
    on_deadlock_ = std::move(handler);
  }

  /// True once the deadlock handler has fired (the engine is wedged and
  /// will not step again).
  bool deadlock_tripped() const { return frozen_; }

  /// Kills both directions of the switch-to-switch link at (sw, port):
  /// branches waiting for or streaming through it are truncated (flits
  /// on the wire evaporate), and every incomplete downstream worm the
  /// truncated branches were feeding is cascade-killed. The packet of
  /// each branch cut at the link is reported through the drop handler
  /// (cascade kills are covered by that report's destination set).
  void FailLink(SwitchId sw, PortId port) override;

  /// Swaps the routing tables to `sys` (same switches x ports shape);
  /// worms routed from now on use the new tables.
  void SwapSystem(const System& sys) override;

 private:
  /// A worm copy resident in (or streaming through) an input buffer;
  /// injection sources are pseudo-worms with every flit available.
  struct Worm {
    PacketPtr pkt;
    int len = 0;
    int received = 0;  ///< flits landed in this buffer
    int freed = 0;     ///< flits consumed by every branch
    Cycles head_arrive = 0;
    bool routed = false;
    int live_branches = 0;
    int port_index = -1;  ///< owning input port; -1 for injection sources
    std::vector<int> branch_ids;
    // --- fault state ---
    bool dead = false;        ///< cascade-killed; skipped if still queued
                              ///< for routing
    bool discarding = false;  ///< all branches gone but the upstream
                              ///< feeder still streams: swallow arrivals
                              ///< so it can drain, free the port at tail
    bool port_released = false;  ///< idempotence guard for the release
  };

  /// One output stream of a routed worm: drains the source buffer
  /// through one channel.
  struct BranchState {
    int src_worm = -1;
    int channel = -1;
    PacketPtr out_pkt;  ///< header as seen downstream
    int len = 0;
    int consumed = 0;
    Cycles start_ok = 0;
    int dst_worm = -1;  ///< created when the head lands downstream
    bool done = false;
    // Host-sink delivery state (channel ends at an NI).
    NodeId sink = kInvalidNode;
    Cycles sink_head = 0;
    int sink_landed = 0;
    // Open credit-stall streak. stall_len counts exactly the cycles
    // added to flit.blocked_cycles, so the emitted block interval
    // [stall_begin, stall_begin + stall_len) keeps the trace-derived
    // total equal to the counter even when the streak is interleaved
    // with flit-availability waits (which are not stalls). The same
    // streak drives the deadlock trip.
    Cycles stall_begin = 0;
    Cycles stall_len = 0;
    const char* stall_why = nullptr;
  };

  struct Channel {
    int dst_port_index = -1;  ///< downstream input port; -1 = host sink
    NodeId sink_host = kInvalidNode;
    bool to_host = false;
    int active_branch = -1;
    std::deque<int> waiting;
    Cycles dead_since = kNever;  ///< FailLink time; kNever = alive
    std::int64_t flits = 0;  ///< one busy cycle per flit moved
    int Load() const {
      return static_cast<int>(waiting.size()) + (active_branch != -1 ? 1 : 0);
    }
  };

  struct InputPort {
    int capacity = 0;
    int resident_worm = -1;  ///< at most one worm resident (single VC)
  };

  struct InFlight {
    int branch = -1;
    bool is_head = false;
    bool is_tail = false;
    Cycles lands = 0;
  };

  /// Ordered bitset worklist: ForEach visits the set bits in ascending
  /// index, and the visitor may clear the bit it is visiting.
  class Worklist {
   public:
    void Resize(std::size_t n) { words_.assign((n + 63) / 64, 0); }
    void Set(std::size_t i) { words_[i / 64] |= Bit(i); }
    void Reset(std::size_t i) { words_[i / 64] &= ~Bit(i); }
    bool Any() const {
      for (std::uint64_t w : words_)
        if (w != 0) return true;
      return false;
    }
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      for (std::size_t wi = 0; wi < words_.size(); ++wi)
        for (std::uint64_t bits = words_[wi]; bits != 0; bits &= bits - 1)
          fn(wi * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }

   private:
    static std::uint64_t Bit(std::size_t i) {
      return std::uint64_t{1} << (i % 64);
    }
    std::vector<std::uint64_t> words_;
  };

  // --- indexing helpers (same layout as the Fabric) ---
  std::size_t PortIdx(SwitchId s, PortId p) const {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(ports_) +
           static_cast<std::size_t>(p);
  }
  std::size_t InjChannel(NodeId n) const {
    return static_cast<std::size_t>(sys_->num_switches()) *
               static_cast<std::size_t>(ports_) +
           static_cast<std::size_t>(n);
  }
  SwitchId SwitchOfPort(int port_index) const {
    return static_cast<SwitchId>(port_index / ports_);
  }
  /// Arbitration tie-break key: the local input port the branch's source
  /// worm occupies at this switch (-1 for source pseudo-worms, which
  /// only ever use injection channels and never contend). Matches the
  /// VCT engine's Tx::arb_port rule.
  int ArbPort(const BranchState& b) const {
    const int pi = worms_[static_cast<std::size_t>(b.src_worm)].port_index;
    return pi >= 0 ? pi % ports_ : -1;
  }
  void ChannelActor(int channel_id, std::int32_t* actor,
                    std::int32_t* detail) const {
    const int n_out = sys_->num_switches() * ports_;
    if (channel_id < n_out) {
      *actor = channel_id / ports_;
      *detail = channel_id % ports_;
    } else {
      *actor = channel_id - n_out;
      *detail = -1;
    }
  }

  // --- event-driven cycle stepping ---
  void ScheduleTick(Cycles when);
  void Tick();
  bool Busy(Cycles now) const;

  // --- cycle phases (run in this order each stepped cycle) ---
  void ReleasePorts();
  void LandFlits(Cycles now);
  void PumpInjections(Cycles now);
  void RouteWorms(Cycles now);
  void MoveFlits(Cycles now);

  void DeliverBranch(BranchState& b, Cycles tail_arrive);
  void CloseStreak(BranchState& b);

  // --- fault handling ---
  /// Truncates a branch: closes its stall streak, detaches it from its
  /// channel, evaporates its flits on the wire, cascade-kills the
  /// incomplete downstream worm it fed, and settles its source worm's
  /// buffer/port accounting.
  void KillBranch(int bid);
  /// Cascade-kills a worm whose feeder was truncated (no more flits
  /// will ever arrive for it): kills its branches, frees its port.
  void KillWorm(int wi);
  void ReleaseWormPort(Worm& w);
  void ReportDrop(const PacketPtr& pkt, SwitchId where);
  /// Aborts (default) or invokes the deadlock handler and freezes.
  void DeadlockTrip(Cycles now, int trip_branch);

  void TraceAt(Cycles time, TraceKind kind, const Packet& pkt,
               std::int32_t actor, std::int32_t detail) {
    if (tracer_)
      tracer_->Record(
          TraceEvent{time, kind, pkt.mcast_id, pkt.pkt_index, actor, detail});
  }

  Engine& engine_;
  const System* sys_;  ///< swapped by SwapSystem (Autonet reconfig)
  NetParams params_;
  DeliverFn deliver_;
  Tracer* tracer_;
  MetricsRegistry& metrics_;
  // Hot-path metric slots, resolved once at construction.
  Counter& m_flits_;           ///< flit.flits_moved
  Counter& m_switched_;        ///< flit.packets_switched
  Counter& m_injected_;        ///< flit.packets_injected
  Counter& m_replications_;    ///< flit.replications
  Counter& m_host_deliveries_; ///< flit.host_deliveries
  Counter& m_blocked_;         ///< flit.blocked_cycles
  Histogram& m_fanout_;        ///< flit.route_fanout
  Histogram& m_header_flits_;  ///< flit.header_flits
  int ports_;

  std::vector<InputPort> inputs_;  // [switch*ports + port]
  std::vector<Channel> channels_;  // switch out-channels, then injections
  std::vector<Worm> worms_;
  std::vector<BranchState> branches_;
  std::vector<InFlight> in_flight_;
  std::deque<std::pair<int, Cycles>> route_queue_;  // (worm, decision time)
  std::vector<std::deque<std::pair<PacketPtr, Cycles>>> inject_queues_;
  // Worklists the cycle phases walk instead of every channel and node.
  Worklist busy_channels_;   ///< channels with an active or waiting branch
  Worklist injecting_nodes_; ///< nodes with a non-empty injection queue
  std::vector<int> pending_port_release_;

  DeadlockHandler on_deadlock_;
  bool frozen_ = false;  ///< deadlock handler fired; engine stays quiet

  Cycles last_processed_ = -1;  ///< highest cycle already stepped
  std::int64_t ticks_ = 0;
  std::int64_t flits_moved_ = 0;
  std::int64_t blocked_cycles_ = 0;
  std::int64_t deliveries_ = 0;
  std::int64_t max_occupancy_ = 0;  ///< input-buffer flits high-water
};

}  // namespace irmc
