#include "network/flit_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "mcast/scheme.hpp"
#include "metrics/metrics.hpp"
#include "network/fabric.hpp"
#include "topology/system.hpp"
#include "trace/analysis.hpp"
#include "trace/tracer.hpp"

namespace irmc {
namespace {

PacketPtr Unicast(NodeId src, NodeId dst, int data_flits = 64) {
  auto pkt = std::make_shared<Packet>();
  pkt->mcast_id = 1;
  pkt->src = src;
  pkt->kind = HeaderKind::kUnicast;
  pkt->uni_dest = dst;
  pkt->data_flits = data_flits;
  pkt->header_flits = 2;
  return pkt;
}

/// Runs the same injections through the packet-granular VCT fabric
/// (deterministic routing) and returns node -> (head, tail).
std::map<NodeId, std::pair<Cycles, Cycles>> RunVct(
    const System& sys, const std::vector<std::pair<NodeId, PacketPtr>>& txs) {
  Engine engine;
  NetParams params;
  params.adaptive = false;
  std::map<NodeId, std::pair<Cycles, Cycles>> out;
  MetricsRegistry reg;
  Fabric fabric(engine, sys, params,
                [&](NodeId n, const PacketPtr&, Cycles h, Cycles t) {
                  out[n] = {h, t};
                },
                reg);
  for (const auto& [n, p] : txs)
    fabric.InjectFromNi(n, std::make_shared<Packet>(*p), 0);
  engine.RunToQuiescence();
  return out;
}

std::map<NodeId, std::pair<Cycles, Cycles>> RunFlit(
    const System& sys, const std::vector<std::pair<NodeId, PacketPtr>>& txs,
    int buffer_flits = 128) {
  Engine engine;
  NetParams params;
  params.adaptive = false;
  params.buffer_flits = buffer_flits;
  std::map<NodeId, std::pair<Cycles, Cycles>> out;
  MetricsRegistry reg;
  FlitEngine flit(engine, sys, params,
                  [&](NodeId n, const PacketPtr&, Cycles h, Cycles t) {
                    out[n] = {h, t};
                  },
                  reg);
  for (const auto& [n, p] : txs)
    flit.InjectFromNi(n, std::make_shared<Packet>(*p), 0);
  engine.RunToQuiescence();
  return out;
}

class EngineXCheck : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    TopologySpec spec;
    spec.num_switches = 8;
    spec.num_hosts = 32;
    sys_ = System::Build(spec, GetParam());
  }
  std::unique_ptr<System> sys_;
};

TEST_P(EngineXCheck, UnicastZeroLoadAgreesExactly) {
  for (NodeId dst : {1, 7, 19, 31}) {
    std::vector<std::pair<NodeId, PacketPtr>> txs{{0, Unicast(0, dst)}};
    const auto vct = RunVct(*sys_, txs);
    const auto flit = RunFlit(*sys_, txs);
    ASSERT_EQ(vct.size(), 1u);
    ASSERT_EQ(flit.size(), 1u);
    EXPECT_EQ(vct.at(dst), flit.at(dst)) << "dst " << dst;
  }
}

TEST_P(EngineXCheck, TreeWormZeroLoadAgreesExactly) {
  std::vector<NodeId> dests{3, 9, 14, 22, 27, 31};
  auto pkt = std::make_shared<Packet>();
  pkt->mcast_id = 1;
  pkt->src = 0;
  pkt->kind = HeaderKind::kTreeWorm;
  pkt->tree_dests = NodeSet::FromVector(32, dests);
  pkt->data_flits = 64;
  pkt->header_flits = 6;
  std::vector<std::pair<NodeId, PacketPtr>> txs{{0, pkt}};
  const auto vct = RunVct(*sys_, txs);
  const auto flit = RunFlit(*sys_, txs);
  ASSERT_EQ(vct.size(), dests.size());
  ASSERT_EQ(flit.size(), dests.size());
  for (NodeId d : dests) EXPECT_EQ(vct.at(d), flit.at(d)) << "dest " << d;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineXCheck,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(FlitEngine, LineLatencyExact) {
  Graph g(3, 4);
  g.AddLink(0, 0, 1, 0);
  g.AddLink(1, 1, 2, 0);
  g.AttachHost(0, 3);
  g.AttachHost(1, 3);
  g.AttachHost(2, 3);
  System sys{std::move(g)};
  Engine engine;
  std::vector<std::pair<Cycles, Cycles>> deliveries;
  MetricsRegistry reg;
  FlitEngine flit(engine, sys, {},
                  [&](NodeId, const PacketPtr&, Cycles h, Cycles t) {
                    deliveries.emplace_back(h, t);
                  },
                  reg);
  flit.InjectFromNi(0, Unicast(0, 2, 128), 0);
  engine.RunToQuiescence();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].first, 10);
  EXPECT_EQ(deliveries[0].second, 10 + 130 - 1);
}

TEST(FlitEngine, IdleGapsCostNoCycles) {
  // Event-driven stepping: an injection ready at cycle 100'000 must not
  // make the engine step the 100'000 idle cycles before it.
  Graph g(2, 4);
  g.AddLink(0, 0, 1, 0);
  g.AttachHost(0, 3);
  g.AttachHost(1, 3);
  System sys{std::move(g)};
  Engine engine;
  int delivered = 0;
  MetricsRegistry reg;
  FlitEngine flit(engine, sys, {},
                  [&](NodeId, const PacketPtr&, Cycles, Cycles) {
                    ++delivered;
                  },
                  reg);
  flit.InjectFromNi(0, Unicast(0, 1, 50), 100'000);
  engine.RunToQuiescence();
  EXPECT_EQ(delivered, 1);
  // Only the active window around the transfer is stepped.
  EXPECT_LT(flit.cycles_stepped(), 200);
}

TEST(FlitEngine, SmallBuffersStretchWormAcrossLinks) {
  // With a 4-flit buffer the worm cannot be absorbed when blocked; the
  // uncontended latency must still be identical (pipelining unaffected),
  // but under contention the blocked worm stalls upstream links.
  Graph g(3, 6);
  g.AddLink(0, 0, 1, 0);
  g.AddLink(1, 1, 2, 0);
  g.AttachHost(0, 4);  // node 0
  g.AttachHost(0, 5);  // node 1
  g.AttachHost(2, 4);  // node 2
  g.AttachHost(2, 5);  // node 3
  System sys{std::move(g)};

  {  // uncontended: buffer size irrelevant
    Engine engine;
    NetParams params;
    params.adaptive = false;
    params.buffer_flits = 4;
    std::vector<Cycles> heads;
    MetricsRegistry reg;
    FlitEngine flit(engine, sys, params,
                    [&](NodeId, const PacketPtr&, Cycles h, Cycles) {
                      heads.push_back(h);
                    },
                    reg);
    flit.InjectFromNi(0, Unicast(0, 2, 128), 0);
    engine.RunToQuiescence();
    ASSERT_EQ(heads.size(), 1u);
    EXPECT_EQ(heads[0], 10);
  }
  {  // contended: two worms to the same switch serialize
    Engine engine;
    NetParams params;
    params.adaptive = false;
    params.buffer_flits = 4;
    std::vector<Cycles> tails;
    MetricsRegistry reg;
    FlitEngine flit(engine, sys, params,
                    [&](NodeId, const PacketPtr&, Cycles, Cycles t) {
                      tails.push_back(t);
                    },
                    reg);
    flit.InjectFromNi(0, Unicast(0, 2, 128), 0);
    flit.InjectFromNi(1, Unicast(1, 3, 128), 0);
    engine.RunToQuiescence();
    ASSERT_EQ(tails.size(), 2u);
    const Cycles spread = std::max(tails[0], tails[1]) -
                          std::min(tails[0], tails[1]);
    EXPECT_GE(spread, 100);
  }
}

TEST(FlitEngine, BlockTracePairsSumToBlockedCyclesCounter) {
  // The contended small-buffer scenario above, with a tracer and a
  // registry attached: every credit-stall streak must surface as a
  // kBlockBegin/kBlockEnd pair, and the matched durations must sum
  // exactly to the flit.blocked_cycles counter.
  Graph g(3, 6);
  g.AddLink(0, 0, 1, 0);
  g.AddLink(1, 1, 2, 0);
  g.AttachHost(0, 4);  // node 0
  g.AttachHost(0, 5);  // node 1
  g.AttachHost(2, 4);  // node 2
  g.AttachHost(2, 5);  // node 3
  System sys{std::move(g)};

  Engine engine;
  NetParams params;
  params.adaptive = false;
  params.buffer_flits = 4;
  MetricsRegistry reg;
  Tracer tracer;
  int delivered = 0;
  FlitEngine flit(engine, sys, params,
                  [&](NodeId, const PacketPtr&, Cycles, Cycles) {
                    ++delivered;
                  },
                  reg, &tracer);
  flit.InjectFromNi(0, Unicast(0, 2, 128), 0);
  flit.InjectFromNi(1, Unicast(1, 3, 128), 0);
  engine.RunToQuiescence();
  ASSERT_EQ(delivered, 2);

  const std::int64_t counter = reg.GetCounter("flit.blocked_cycles").value;
  ASSERT_GT(counter, 0);  // the scenario really does block
  EXPECT_EQ(TotalBlockedCycles(tracer), counter);

  // Pairs are balanced and every interval names a real channel.
  const auto intervals = BlockIntervals(tracer);
  std::size_t block_events = 0;
  tracer.ForEach([&block_events](const TraceEvent& e) {
    if (e.kind == TraceKind::kBlockBegin || e.kind == TraceKind::kBlockEnd)
      ++block_events;
  });
  EXPECT_EQ(block_events, intervals.size() * 2);
  for (const auto& iv : intervals) {
    EXPECT_GT(iv.Duration(), 0);
    EXPECT_GE(iv.source.actor, 0);
    if (!iv.source.IsInjection()) {
      EXPECT_LT(iv.source.actor, sys.num_switches());
      EXPECT_LT(iv.source.port, sys.graph.ports_per_switch());
    } else {
      EXPECT_LT(iv.source.actor, sys.num_nodes());
    }
  }
}

TEST(FlitEngine, MultipleInjectionsSameNodeSerialize) {
  Graph g(2, 4);
  g.AddLink(0, 0, 1, 0);
  g.AttachHost(0, 3);
  g.AttachHost(1, 3);
  System sys{std::move(g)};
  Engine engine;
  std::vector<Cycles> heads;
  MetricsRegistry reg;
  FlitEngine flit(engine, sys, {},
                  [&](NodeId, const PacketPtr&, Cycles h, Cycles) {
                    heads.push_back(h);
                  },
                  reg);
  flit.InjectFromNi(0, Unicast(0, 1, 50), 0);
  flit.InjectFromNi(0, Unicast(0, 1, 50), 0);
  engine.RunToQuiescence();
  ASSERT_EQ(heads.size(), 2u);
  // 52 wire flits plus the route+xbar offset before the input-port
  // buffer frees for the second worm — identical to the VCT engine.
  EXPECT_EQ(heads[1] - heads[0], 55);
}

using FlitEngineDeathTest = ::testing::Test;

TEST(FlitEngineDeathTest, DeadlockHorizonNamesStuckWormsAndPorts) {
  // Spur topology: a long blocker occupies switch B's input from A while
  // a victim worm behind it cannot make progress. With a tiny buffer and
  // a tiny horizon, the victim's credit-stall streak trips the deadlock
  // check, and the failure must name the stuck worm and its port.
  auto run = []() {
    Graph g(3, 6);
    g.AddLink(0, 0, 1, 0);
    g.AddLink(1, 1, 2, 0);
    g.AttachHost(0, 4);  // node 0
    g.AttachHost(0, 5);  // node 1
    g.AttachHost(2, 4);  // node 2
    g.AttachHost(2, 5);  // node 3
    System sys{std::move(g)};
    Engine engine;
    NetParams params;
    params.adaptive = false;
    params.buffer_flits = 4;
    params.deadlock_horizon = 16;  // far below the real drain time
    MetricsRegistry reg;
    FlitEngine flit(engine, sys, params,
                    [](NodeId, const PacketPtr&, Cycles, Cycles) {}, reg);
    flit.InjectFromNi(0, Unicast(0, 2, 128), 0);
    flit.InjectFromNi(1, Unicast(1, 3, 128), 0);
    engine.RunToQuiescence();
  };
  EXPECT_DEATH(run(), "blocked past deadlock horizon.*blocked worms:");
}

class ContendedXCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContendedXCheck, EnginesAgreeExactlyUnderContention) {
  // With packet-sized buffers and deterministic routing, the two engines
  // implement the same physics: even contended, arbitrated traffic must
  // produce the identical multiset of (node, head, tail) deliveries.
  TopologySpec spec;
  spec.num_switches = 8;
  spec.num_hosts = 32;
  const auto sys = System::Build(spec, GetParam());
  std::vector<std::tuple<NodeId, NodeId, Cycles>> txs;
  Rng rng(GetParam() * 1000 + 5);
  for (int i = 0; i < 16; ++i) {
    auto d = rng.SampleWithoutReplacement(32, 2);
    txs.emplace_back(static_cast<NodeId>(d[0]), static_cast<NodeId>(d[1]),
                     static_cast<Cycles>(rng.NextBelow(300)));
  }
  std::multiset<std::tuple<NodeId, Cycles, Cycles>> vct_set, flit_set;
  {
    Engine engine;
    NetParams params;
    params.adaptive = false;
    MetricsRegistry reg;
    Fabric fabric(engine, *sys, params,
                  [&](NodeId n, const PacketPtr&, Cycles h, Cycles t) {
                    vct_set.insert({n, h, t});
                  },
                  reg);
    for (const auto& [s, t, r] : txs)
      fabric.InjectFromNi(s, Unicast(s, t), r);
    engine.RunToQuiescence();
  }
  {
    Engine engine;
    NetParams params;
    params.adaptive = false;
    MetricsRegistry reg;
    FlitEngine flit(engine, *sys, params,
                    [&](NodeId n, const PacketPtr&, Cycles h, Cycles t) {
                      flit_set.insert({n, h, t});
                    },
                    reg);
    for (const auto& [s, t, r] : txs) flit.InjectFromNi(s, Unicast(s, t), r);
    engine.RunToQuiescence();
  }
  EXPECT_EQ(vct_set, flit_set);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContendedXCheck,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(FlitEngine, QuietAfterFailingLinkWithActiveAndWaitingBranches) {
  // Two worms from switch 0's hosts queue for the one link to switch 1:
  // the first streams through it, the second waits for the grant.
  // Failing the link mid-worm cuts both. The engine must then drain and
  // go quiet, with no channel or injection state left behind.
  Graph g(3, 6);
  g.AddLink(0, 0, 1, 0);
  g.AddLink(1, 1, 2, 0);
  g.AttachHost(0, 4);  // node 0
  g.AttachHost(0, 5);  // node 1
  g.AttachHost(2, 4);  // node 2
  g.AttachHost(2, 5);  // node 3
  System sys{std::move(g)};

  Engine engine;
  NetParams params;
  params.adaptive = false;
  Tracer tracer;
  int delivered = 0;
  MetricsRegistry reg;
  FlitEngine flit(engine, sys, params,
                  [&](NodeId, const PacketPtr&, Cycles, Cycles) {
                    ++delivered;
                  },
                  reg, &tracer);
  std::vector<std::int64_t> dropped;
  flit.SetDropHandler([&](const PacketPtr& pkt, Cycles, SwitchId) {
    dropped.push_back(pkt->mcast_id);
  });
  auto first = Unicast(0, 2, 128);
  auto second = Unicast(1, 3, 128);
  second->mcast_id = 2;
  flit.InjectFromNi(0, first, 0);
  flit.InjectFromNi(1, second, 0);

  constexpr Cycles kFailAt = 40;
  engine.ScheduleAt(kFailAt, [&] {
    // Both worms have routed at switch 0 onto the link, but only one
    // head has crossed it: one branch is active, the other waiting.
    int routed_at_0 = 0;
    int heads_at_1 = 0;
    tracer.ForEach([&](const TraceEvent& e) {
      if (e.kind == TraceKind::kRoute && e.actor == 0) ++routed_at_0;
      if (e.kind == TraceKind::kHeadArrive && e.actor == 1) ++heads_at_1;
    });
    EXPECT_EQ(routed_at_0, 2);
    EXPECT_EQ(heads_at_1, 1);
    EXPECT_GE(flit.TotalBacklog(), 2);
    flit.FailLink(0, 0);
  });

  // Bounded: a channel left marked busy would tick forever.
  ASSERT_TRUE(engine.RunUntil(100'000));
  EXPECT_TRUE(engine.Idle());
  EXPECT_EQ(delivered, 0);
  std::sort(dropped.begin(), dropped.end());
  EXPECT_EQ(dropped, (std::vector<std::int64_t>{1, 2}));

  const std::int64_t stepped = flit.cycles_stepped();
  EXPECT_GT(stepped, kFailAt);
  engine.ScheduleAt(engine.Now() + 50'000, [] {});
  ASSERT_TRUE(engine.RunUntil(200'000));
  EXPECT_EQ(flit.cycles_stepped(), stepped);
  EXPECT_EQ(flit.TotalBacklog(), 0);
  for (NodeId n = 0; n < sys.num_nodes(); ++n)
    EXPECT_EQ(flit.InjectionBacklog(n), 0) << "node " << n;
}

// --- wormhole regime: golden outputs ---
//
// With buffers far smaller than a worm, a blocked worm holds every link
// behind it, and whether a freed flit's credit is seen upstream in the
// same cycle or the next depends on the order channels are stepped in.
// No other engine models this regime, so these runs are pinned to
// recorded values instead of cross-checked.

/// (mcast, packet index, node, head cycle, tail cycle).
using NetDelivery = std::tuple<std::int64_t, int, NodeId, Cycles, Cycles>;

struct WormholeOutcome {
  std::vector<NetDelivery> deliveries;  ///< sorted
  std::int64_t blocked_cycles = 0;
  Cycles deadlock_at = -1;  ///< deadlock-trip cycle; -1 = drained
};

/// Plays `kind`-shaped multicasts from several sources straight on a
/// FlitEngine, without the host/NI model: each source injects its plan at
/// a random start, and a node forwards what the plan gives it (its
/// children for the unicast schemes, its path worms for path-worm) a
/// fixed turnaround after a packet's tail reaches it. Tree worms that
/// cannot be absorbed can wedge each other; such a run stops at the
/// deadlock trip, and the trip cycle is part of the outcome.
WormholeOutcome RunWormhole(SchemeKind kind, std::uint64_t seed) {
  constexpr int kSources = 6;
  constexpr int kFanout = 7;
  constexpr Cycles kTurnaround = 5;
  const auto sys = System::Build({}, seed);
  const int nodes = sys->num_nodes();
  MessageShape shape;
  shape.packet_flits = 48;
  const HeaderSizing headers;
  const auto scheme = MakeScheme(kind, HostParams{});

  Rng rng(seed * 1009 + static_cast<std::uint64_t>(kind));
  std::vector<McastPlan> plans;
  std::vector<Cycles> starts;
  for (NodeId src : rng.SampleWithoutReplacement(nodes, kSources)) {
    std::vector<NodeId> dests;
    for (auto d : rng.SampleWithoutReplacement(nodes, kFanout + 1))
      if (static_cast<NodeId>(d) != src &&
          static_cast<int>(dests.size()) < kFanout)
        dests.push_back(static_cast<NodeId>(d));
    plans.push_back(scheme->Plan(*sys, src, dests, shape, headers));
    starts.push_back(static_cast<Cycles>(rng.NextBelow(200)));
  }

  Engine engine;
  NetParams params;
  params.buffer_flits = 12;  // every worm is at least 50 flits long
  params.deadlock_horizon = 2000;  // drained runs end well before this
  MetricsRegistry reg;
  WormholeOutcome out;
  std::set<std::pair<std::int64_t, NodeId>> forwarded;
  FlitEngine* net = nullptr;
  const auto send_from = [&](std::int64_t m, NodeId u, Cycles ready) {
    if (!forwarded.insert({m, u}).second) return;
    const McastPlan& plan = plans[static_cast<std::size_t>(m)];
    auto base = [&] {
      auto pkt = std::make_shared<Packet>();
      pkt->mcast_id = m;
      pkt->src = plan.root;
      pkt->data_flits = shape.packet_flits;
      return pkt;
    };
    switch (kind) {
      case SchemeKind::kUnicastBinomial:
      case SchemeKind::kNiKBinomial:
        for (NodeId c : plan.children[static_cast<std::size_t>(u)]) {
          auto pkt = base();
          pkt->uni_dest = c;
          pkt->header_flits = headers.UnicastFlits();
          net->InjectFromNi(u, std::move(pkt), ready);
        }
        break;
      case SchemeKind::kTreeWorm:
        if (u == plan.root) {
          auto pkt = base();
          pkt->kind = HeaderKind::kTreeWorm;
          pkt->tree_dests = NodeSet::FromVector(nodes, plan.dests);
          pkt->header_flits = headers.TreeWormFlits(nodes);
          net->InjectFromNi(u, std::move(pkt), ready);
        }
        break;
      case SchemeKind::kPathWorm:
        for (const auto& worm : plan.worms) {
          if (worm.sender != u) continue;
          auto pkt = base();
          pkt->kind = HeaderKind::kPathWorm;
          pkt->path = worm.route;
          pkt->header_flits = worm.header_flits;
          net->InjectFromNi(u, std::move(pkt), ready);
        }
        break;
    }
  };
  FlitEngine flit(engine, *sys, params,
                  [&](NodeId n, const PacketPtr& pkt, Cycles h, Cycles t) {
                    out.deliveries.emplace_back(pkt->mcast_id, pkt->pkt_index,
                                                n, h, t);
                    send_from(pkt->mcast_id, n, t + kTurnaround);
                  },
                  reg);
  flit.SetDeadlockHandler(
      [&](const FlitDeadlockInfo& info) { out.deadlock_at = info.now; });
  net = &flit;
  for (std::size_t m = 0; m < plans.size(); ++m)
    send_from(static_cast<std::int64_t>(m), plans[m].root, starts[m]);
  engine.RunToQuiescence();

  std::sort(out.deliveries.begin(), out.deliveries.end());
  out.blocked_cycles = reg.GetCounter("flit.blocked_cycles").value;
  return out;
}

/// FNV-1a over every delivery's fields, in sorted order.
std::uint64_t Digest(const std::vector<NetDelivery>& deliveries) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [m, pkt, node, head, tail] : deliveries) {
    mix(m);
    mix(pkt);
    mix(node);
    mix(head);
    mix(tail);
  }
  return h;
}

struct WormholeGolden {
  SchemeKind kind;
  std::uint64_t seed;
  std::size_t deliveries;
  Cycles last_tail;
  std::int64_t blocked_cycles;
  Cycles deadlock_at;
  std::uint64_t digest;
};

class WormholeGoldenTest : public ::testing::TestWithParam<WormholeGolden> {};

TEST_P(WormholeGoldenTest, DeliveriesAndBlockedCyclesMatchRecorded) {
  const WormholeGolden& g = GetParam();
  const WormholeOutcome out = RunWormhole(g.kind, g.seed);
  ASSERT_FALSE(out.deliveries.empty());
  Cycles last_tail = 0;
  for (const auto& d : out.deliveries)
    last_tail = std::max(last_tail, std::get<4>(d));
  const std::uint64_t digest = Digest(out.deliveries);
  char actual[128];
  std::snprintf(actual, sizeof actual,
                "actual {%zu, %lld, %lld, %lld, 0x%016llx}",
                out.deliveries.size(), static_cast<long long>(last_tail),
                static_cast<long long>(out.blocked_cycles),
                static_cast<long long>(out.deadlock_at),
                static_cast<unsigned long long>(digest));
  // The regime under test: worms really do block one another.
  EXPECT_GT(out.blocked_cycles, 0) << actual;
  EXPECT_EQ(out.deliveries.size(), g.deliveries) << actual;
  EXPECT_EQ(last_tail, g.last_tail) << actual;
  EXPECT_EQ(out.blocked_cycles, g.blocked_cycles) << actual;
  EXPECT_EQ(out.deadlock_at, g.deadlock_at) << actual;
  EXPECT_EQ(digest, g.digest) << actual;
}

// A mismatch means simulated output changed; record new values only for
// an intended change of behaviour.
INSTANTIATE_TEST_SUITE_P(
    Recorded, WormholeGoldenTest,
    ::testing::Values(
        WormholeGolden{SchemeKind::kUnicastBinomial, 1, 42, 462, 1283, -1,
                       0xff69154f885e1789ull},
        WormholeGolden{SchemeKind::kUnicastBinomial, 2, 42, 894, 3229, -1,
                       0x8c732e3f1d2fa3c3ull},
        WormholeGolden{SchemeKind::kUnicastBinomial, 3, 42, 534, 909, -1,
                       0xef507c64123d871eull},
        WormholeGolden{SchemeKind::kNiKBinomial, 1, 42, 497, 863, -1,
                       0x9b76b316b4f52574ull},
        WormholeGolden{SchemeKind::kNiKBinomial, 2, 42, 790, 1754, -1,
                       0x08f8519430874b52ull},
        WormholeGolden{SchemeKind::kNiKBinomial, 3, 42, 536, 938, -1,
                       0x34a11a731f900042ull},
        WormholeGolden{SchemeKind::kTreeWorm, 1, 42, 359, 870, -1,
                       0x90ac92adbca1da82ull},
        WormholeGolden{SchemeKind::kTreeWorm, 2, 42, 374, 678, -1,
                       0x677c48954bbf91b1ull},
        WormholeGolden{SchemeKind::kTreeWorm, 3, 14, 206, 23767, 2165,
                       0xc6a17f52a7dbc4afull},
        WormholeGolden{SchemeKind::kPathWorm, 1, 42, 336, 342, -1,
                       0xb0c0dcd7e9a9ffafull},
        WormholeGolden{SchemeKind::kPathWorm, 2, 42, 508, 184, -1,
                       0xdccf13b101fc3775ull},
        WormholeGolden{SchemeKind::kPathWorm, 3, 42, 477, 1077, -1,
                       0xcf66e7a11c91aefeull}),
    [](const auto& info) {
      return std::string(ToIdent(info.param.kind)) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace irmc
