// Pooled packet and buffer lifetimes (see the ownership notes in
// network/packet.hpp and common/slab.hpp).
//
//  * Slab and Fifo unit behaviour: intrusive counts, free-list reuse,
//    free-standing objects, handles that outlive their slab, ring
//    wrap-around and mid-queue erase.
//  * Pool drain: after RunToQuiescence every pooled Packet (both
//    engines) and every VCT input-buffer record is back on its free
//    list, for all four schemes, pristine and under a chaos fault
//    schedule that truncates worms mid-flight.
//  * Lifetime: packets kept by a delivery callback, and events still
//    queued on an engine, outlive the network model that pooled them.
#include "common/slab.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fifo.hpp"
#include "core/executor.hpp"
#include "mcast/scheme.hpp"
#include "metrics/metrics.hpp"
#include "network/fabric.hpp"
#include "resilience/fault_schedule.hpp"
#include "sim/engine.hpp"
#include "topology/system.hpp"

namespace irmc {
namespace {

// --- Slab ---------------------------------------------------------------

struct Tracked {
  explicit Tracked(int v = 0, int* alive = nullptr) : value(v), alive(alive) {
    if (alive) ++*alive;
  }
  Tracked(const Tracked& o) : value(o.value), alive(o.alive) {
    if (alive) ++*alive;
  }
  ~Tracked() {
    if (alive) --*alive;
  }
  int value;
  int* alive;
};

TEST(Slab, CountsReferencesAndRecyclesNodes) {
  int alive = 0;
  Slab<Tracked> slab;
  {
    Slab<Tracked>::Ref a = slab.Make(7, &alive);
    {
      Slab<Tracked>::Ref b = a;
      EXPECT_EQ(b->value, 7);
      Slab<Tracked>::Ref moved = std::move(b);
      EXPECT_EQ(b, nullptr);
      EXPECT_EQ(moved, a);
    }
    // Two of three handles gone: the object lives on.
    EXPECT_EQ(slab.live(), 1u);
    EXPECT_EQ(alive, 1);
    EXPECT_EQ(a->value, 7);
  }
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(alive, 0);  // destroyed on the last release
  // Freed nodes are reused before new ones are carved.
  std::vector<Slab<Tracked>::Ref> refs;
  for (int i = 0; i < 100; ++i) refs.push_back(slab.Make(i));
  const std::size_t high_water = slab.capacity();
  refs.clear();
  for (int i = 0; i < 100; ++i) refs.push_back(slab.Make(i));
  EXPECT_EQ(slab.capacity(), high_water);
  EXPECT_EQ(slab.live(), 100u);
}

TEST(Slab, CloneDrawsFromTheSameSlab) {
  Slab<Tracked> slab;
  const auto a = slab.Make(3);
  const auto b = a.Clone();
  EXPECT_NE(a, b);
  EXPECT_EQ(b->value, 3);
  EXPECT_EQ(slab.live(), 2u);
  int alive = 0;
  {
    const auto loose = Slab<Tracked>::MakeUnpooled(5, &alive);
    const auto copy = loose.Clone();
    EXPECT_EQ(copy->value, 5);
    EXPECT_EQ(alive, 2);
    EXPECT_EQ(slab.live(), 2u);  // free-standing: not in any slab
  }
  EXPECT_EQ(alive, 0);
}

TEST(Slab, HandlesOutliveTheirSlab) {
  int alive = 0;
  Slab<Tracked>::Ref survivor;
  {
    Slab<Tracked> slab;
    survivor = slab.Make(9, &alive);
    const auto temp = slab.Make(1, &alive);
  }
  // The slab is gone; its storage stays until the last handle goes
  // (ASan/UBSan builds check there is no use after free here).
  EXPECT_EQ(survivor->value, 9);
  Slab<Tracked>::Ref clone = survivor.Clone();
  EXPECT_EQ(alive, 2);
  survivor = nullptr;
  EXPECT_EQ(clone->value, 9);
  clone = nullptr;
  EXPECT_EQ(alive, 0);
}

// --- Fifo ---------------------------------------------------------------

TEST(Fifo, KeepsOrderAcrossWrapAroundAndGrowth) {
  Fifo<int> q;
  EXPECT_TRUE(q.empty());
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so the ring wraps while it grows.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) q.push_back(next_in++);
    q.pop_front();
    ++next_out;
  }
  ASSERT_EQ(q.size(), static_cast<std::size_t>(next_in - next_out));
  for (std::size_t i = 0; i < q.size(); ++i)
    EXPECT_EQ(q[i], next_out + static_cast<int>(i));
}

TEST(Fifo, EraseKeepsTheRestInOrderAndReleasesTheSlot) {
  Fifo<std::shared_ptr<int>> q;
  std::weak_ptr<int> watch;
  for (int i = 0; i < 6; ++i) {
    auto p = std::make_shared<int>(i);
    if (i == 3) watch = p;
    q.push_back(std::move(p));
  }
  q.pop_front();  // 1..5 left, head moved off slot 0
  q.erase(2);     // removes value 3
  EXPECT_TRUE(watch.expired());
  ASSERT_EQ(q.size(), 4u);
  const int expected[] = {1, 2, 4, 5};
  for (std::size_t i = 0; i < q.size(); ++i) EXPECT_EQ(*q[i], expected[i]);
  Fifo<std::shared_ptr<int>> moved = std::move(q);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(moved.size(), 4u);
  q.push_back(std::make_shared<int>(8));  // a moved-from queue is reusable
  EXPECT_EQ(*q.front(), 8);
}

// --- Pool drain ---------------------------------------------------------

const SchemeKind kSchemes[] = {SchemeKind::kUnicastBinomial,
                               SchemeKind::kNiKBinomial,
                               SchemeKind::kTreeWorm, SchemeKind::kPathWorm};

std::vector<NodeId> EveryThirdHost(const System& sys) {
  std::vector<NodeId> dests;
  for (NodeId n = 1; n < sys.num_nodes(); n += 3) dests.push_back(n);
  return dests;
}

/// Plays one multicast to quiescence and checks that every pool drained.
/// Returns the run's drop count.
std::int64_t PlayAndExpectDrained(const System& sys, const SimConfig& cfg,
                                  SchemeKind kind, const std::string& label) {
  const auto dests = EveryThirdHost(sys);
  const auto scheme = MakeScheme(kind, cfg.host);
  MetricsRegistry reg;
  Engine engine;
  McastDriver driver(engine, sys, cfg, nullptr, &reg);
  bool done = false;
  driver.Launch(scheme->Plan(sys, 0, dests, cfg.message, cfg.headers), 0,
                [&done](const MulticastResult&) { done = true; });
  engine.RunToQuiescence();
  EXPECT_TRUE(done) << label;
  EXPECT_EQ(driver.live_multicasts(), 0) << label;
  const NetworkModel& net = driver.network();
  EXPECT_GT(net.packet_slab().capacity(), 0u) << label;
  EXPECT_EQ(net.packet_slab().live(), 0u) << label << ": packets still held";
  if (const auto* fabric = dynamic_cast<const Fabric*>(&net)) {
    EXPECT_EQ(fabric->live_buffers(), 0u) << label << ": buffers still held";
  }
  return cfg.resilience.enabled ? reg.GetCounter("resilience.drops").value
                                : 0;
}

const char* EngineName(EngineKind e) {
  return e == EngineKind::kVct ? " vct" : " flit";
}

TEST(PoolDrain, PristineRunsReturnEveryPacketAndBuffer) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto sys = System::Build({}, seed);
    for (EngineKind engine : {EngineKind::kVct, EngineKind::kFlit}) {
      for (SchemeKind kind : kSchemes) {
        SimConfig cfg;
        cfg.engine = engine;
        cfg.message.num_packets = 2;
        cfg.net.record_routes = true;  // hop logs fork with every clone
        PlayAndExpectDrained(*sys, cfg, kind,
                             "seed " + std::to_string(seed) + " " +
                                 ToIdent(kind) + EngineName(engine));
      }
    }
  }
}

TEST(PoolDrain, ChaosRunsReturnEveryPacketAndBuffer) {
  for (EngineKind engine : {EngineKind::kVct, EngineKind::kFlit}) {
    std::int64_t drops = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const auto sys = System::Build({}, seed);
      for (SchemeKind kind : kSchemes) {
        SimConfig cfg;
        cfg.engine = engine;
        cfg.seed = seed;
        cfg.message.num_packets = 2;
        cfg.message.packet_flits = 32;
        cfg.resilience.enabled = true;
        cfg.resilience.schedule = MakeSurvivableSchedule(
            sys->graph, seed * 31 + static_cast<std::uint64_t>(kind), 2,
            1'100, 3'500);
        drops += PlayAndExpectDrained(*sys, cfg, kind,
                                      "chaos seed " + std::to_string(seed) +
                                          " " + ToIdent(kind) +
                                          EngineName(engine));
      }
    }
    // The sweep must actually have truncated worms mid-flight.
    EXPECT_GT(drops, 0) << EngineName(engine);
  }
}

// --- Lifetime -----------------------------------------------------------

TEST(PoolLifetime, DeliveredPacketsOutliveTheFabric) {
  const auto sys = System::Build({}, 4);
  Engine engine;
  MetricsRegistry reg;
  std::vector<PacketPtr> kept;
  {
    Fabric fabric(
        engine, *sys, NetParams{},
        [&kept](NodeId, const PacketPtr& p, Cycles, Cycles) {
          kept.push_back(p);
        },
        reg);
    PacketPtr pkt = fabric.NewPacket();
    pkt->mcast_id = 5;
    pkt->kind = HeaderKind::kTreeWorm;
    pkt->tree_dests = NodeSet::FromVector(sys->num_nodes(), {3, 9, 20});
    pkt->data_flits = 16;
    pkt->header_flits = 4;
    fabric.InjectFromNi(0, std::move(pkt), 0);
    engine.RunToQuiescence();
    EXPECT_EQ(fabric.packet_slab().live(), kept.size());
  }
  ASSERT_EQ(kept.size(), 3u);
  for (const PacketPtr& p : kept) {
    EXPECT_EQ(p->mcast_id, 5);
    EXPECT_EQ(p->tree_dests.Count(), 1);
  }
  kept.clear();  // the last handles free the orphaned slab
}

TEST(PoolLifetime, QueuedEventsOutliveTheDriver) {
  const auto sys = System::Build({}, 4);
  for (EngineKind kind : {EngineKind::kVct, EngineKind::kFlit}) {
    SimConfig cfg;
    cfg.engine = kind;
    cfg.message.num_packets = 8;  // injections span ~1050..1450
    const auto scheme = MakeScheme(SchemeKind::kTreeWorm, cfg.host);
    Engine engine;
    {
      McastDriver driver(engine, *sys, cfg);
      driver.Launch(scheme->Plan(*sys, 0, EveryThirdHost(*sys), cfg.message,
                                 cfg.headers),
                    0, nullptr);
      // Stop mid-flight: packets sit in queued events and channel queues.
      engine.RunUntil(1'100);
      EXPECT_GT(driver.network().packet_slab().live(), 0u) << EngineName(kind);
    }
    // Destroying the engine releases the packets its pending actions
    // still hold, into the slab the driver's network left behind.
  }
}

}  // namespace
}  // namespace irmc
