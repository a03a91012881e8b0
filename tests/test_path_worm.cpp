#include "mcast/path_worm.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "core/executor.hpp"
#include "topology/system.hpp"
#include "trace/tracer.hpp"

namespace irmc {
namespace {

class PathWormSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    TopologySpec spec;
    spec.num_switches = 8;
    spec.num_hosts = 32;
    sys_ = System::Build(spec, GetParam());
  }
  std::unique_ptr<System> sys_;
};

TEST_P(PathWormSweep, BestPathCoversAndIsLegal) {
  std::vector<char> remaining(static_cast<std::size_t>(sys_->num_switches()),
                              0);
  for (SwitchId s : {1, 3, 5, 7}) remaining[static_cast<std::size_t>(s)] = 1;
  for (SwitchId start = 0; start < sys_->num_switches(); ++start) {
    const auto r = FindBestCoveragePath(*sys_, start, remaining, 99);
    ASSERT_FALSE(r.covered.empty());
    EXPECT_EQ(r.switches.front(), start);
    EXPECT_TRUE(sys_->routing.IsLegalRoute(start, r.ports));
    EXPECT_EQ(r.ports.size() + 1, r.switches.size());
    // Covered switches actually lie on the path and carry weight.
    std::set<SwitchId> on_path(r.switches.begin(), r.switches.end());
    for (SwitchId c : r.covered) {
      EXPECT_TRUE(on_path.count(c));
      EXPECT_TRUE(remaining[static_cast<std::size_t>(c)]);
    }
    // Path ends at a covered switch (no useless trailing hops).
    EXPECT_TRUE(remaining[static_cast<std::size_t>(r.switches.back())]);
  }
}

TEST_P(PathWormSweep, CoverageCapRespected) {
  std::vector<char> remaining(static_cast<std::size_t>(sys_->num_switches()),
                              1);
  remaining[0] = 0;
  const auto capped = FindBestCoveragePath(*sys_, 0, remaining, 2);
  EXPECT_LE(static_cast<int>(capped.covered.size()), 2);
  const auto uncapped = FindBestCoveragePath(*sys_, 0, remaining, 99);
  EXPECT_GE(uncapped.covered.size(), capped.covered.size());
}

TEST_P(PathWormSweep, ReusedScratchMatchesFreshScratch) {
  // One scratch across many searches with changing `remaining` sets,
  // starts and caps must give what a fresh scratch gives every time.
  const auto n = static_cast<std::size_t>(sys_->num_switches());
  Rng rng(GetParam() * 977 + 1);
  CoveragePathScratch reused;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<char> remaining(n, 0);
    for (std::size_t s = 0; s < n; ++s) remaining[s] = rng.NextBool(0.4);
    remaining[static_cast<std::size_t>(rng.NextBelow(n))] = 1;
    const auto start = static_cast<SwitchId>(rng.NextBelow(n));
    const int cap = 1 + static_cast<int>(rng.NextBelow(n));
    const BestPathResult& got =
        FindBestCoveragePath(*sys_, start, remaining, cap, reused);
    const BestPathResult want =
        FindBestCoveragePath(*sys_, start, remaining, cap);
    EXPECT_EQ(got.switches, want.switches) << "trial " << trial;
    EXPECT_EQ(got.ports, want.ports) << "trial " << trial;
    EXPECT_EQ(got.covered, want.covered) << "trial " << trial;
  }
}

TEST_P(PathWormSweep, ReusedSchemeMatchesFreshScheme) {
  PathWormMdpLgScheme reused;
  Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 40; ++trial) {
    const auto src = static_cast<NodeId>(rng.NextBelow(32));
    std::vector<NodeId> dests;
    for (auto d : rng.SampleWithoutReplacement(31, 1 + trial % 20))
      dests.push_back(static_cast<NodeId>(d >= src ? d + 1 : d));
    const McastPlan a = reused.Plan(*sys_, src, dests, {}, {});
    const McastPlan b = PathWormMdpLgScheme{}.Plan(*sys_, src, dests, {}, {});
    ASSERT_EQ(a.worms.size(), b.worms.size()) << "trial " << trial;
    for (std::size_t w = 0; w < a.worms.size(); ++w) {
      EXPECT_EQ(a.worms[w].sender, b.worms[w].sender);
      EXPECT_EQ(a.worms[w].covered, b.worms[w].covered);
      EXPECT_EQ(a.worms[w].header_flits, b.worms[w].header_flits);
      ASSERT_EQ(a.worms[w].route->steps.size(), b.worms[w].route->steps.size());
      for (std::size_t i = 0; i < a.worms[w].route->steps.size(); ++i) {
        EXPECT_EQ(a.worms[w].route->steps[i].sw, b.worms[w].route->steps[i].sw);
        EXPECT_EQ(a.worms[w].route->steps[i].deliver,
                  b.worms[w].route->steps[i].deliver);
        EXPECT_EQ(a.worms[w].route->steps[i].forward_port,
                  b.worms[w].route->steps[i].forward_port);
      }
    }
  }
}

TEST_P(PathWormSweep, PlanPartitionsDestinations) {
  PathWormMdpLgScheme scheme;
  std::vector<NodeId> dests;
  for (NodeId n = 1; n < 32; n += 3) dests.push_back(n);
  const McastPlan plan = scheme.Plan(*sys_, 0, dests, {}, {});

  std::map<NodeId, int> covered_count;
  for (const auto& worm : plan.worms) {
    for (NodeId d : worm.covered) ++covered_count[d];
    // Worm route legality: every step's forward port exists and the hop
    // sequence is a legal route.
    std::vector<PortId> hops;
    for (const auto& step : worm.route->steps)
      if (step.forward_port != kInvalidPort) hops.push_back(step.forward_port);
    EXPECT_TRUE(
        sys_->routing.IsLegalRoute(worm.route->steps.front().sw, hops));
    // Sender attached to the first switch of the route.
    EXPECT_EQ(sys_->graph.SwitchOf(worm.sender), worm.route->steps.front().sw);
    // Multi-drop restriction: at most one switch forward per switch (the
    // representation enforces it), and drops at the final switch.
    EXPECT_FALSE(worm.route->steps.back().deliver.empty());
    EXPECT_EQ(worm.route->steps.back().forward_port, kInvalidPort);
  }
  EXPECT_EQ(covered_count.size(), dests.size());
  for (NodeId d : dests) EXPECT_EQ(covered_count[d], 1) << "dest " << d;
}

TEST_P(PathWormSweep, SendersReceivedBeforeSending) {
  PathWormMdpLgScheme scheme;
  std::vector<NodeId> dests;
  for (NodeId n = 1; n < 32; n += 2) dests.push_back(n);
  const McastPlan plan = scheme.Plan(*sys_, 0, dests, {}, {});
  // A worm's sender is either the root or covered by an earlier worm.
  std::set<NodeId> has_message{0};
  for (const auto& worm : plan.worms) {
    EXPECT_TRUE(has_message.count(worm.sender))
        << "sender " << worm.sender << " sends before receiving";
    for (NodeId d : worm.covered) has_message.insert(d);
  }
}

TEST_P(PathWormSweep, PhasesAreMonotone) {
  PathWormMdpLgScheme scheme;
  std::vector<NodeId> dests;
  for (NodeId n = 2; n < 32; n += 2) dests.push_back(n);
  const McastPlan plan = scheme.Plan(*sys_, 1, dests, {}, {});
  int prev_phase = 1;
  for (const auto& worm : plan.worms) {
    EXPECT_GE(worm.phase, prev_phase);
    prev_phase = worm.phase;
  }
}

TEST_P(PathWormSweep, HeaderShrinksMonotonically) {
  PathWormMdpLgScheme scheme;
  std::vector<NodeId> dests;
  for (NodeId n = 1; n < 32; n += 4) dests.push_back(n);
  const McastPlan plan = scheme.Plan(*sys_, 0, dests, {}, {});
  for (const auto& worm : plan.worms) {
    EXPECT_GT(worm.header_flits, 0);
    int prev = worm.header_flits;
    for (const auto& step : worm.route->steps) {
      EXPECT_LE(step.header_flits_after, prev);
      prev = step.header_flits_after;
    }
    EXPECT_EQ(worm.route->steps.back().header_flits_after, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathWormSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(PathWorm, SingleSwitchDestinationsNeedOneWorm) {
  // All destinations on the source's own switch: a single 1-step worm.
  const auto sys = System::Build({}, 5);
  PathWormMdpLgScheme scheme;
  const SwitchId home = sys->graph.SwitchOf(0);
  std::vector<NodeId> dests;
  for (NodeId n : sys->graph.HostsAt(home))
    if (n != 0) dests.push_back(n);
  ASSERT_FALSE(dests.empty());
  const McastPlan plan = scheme.Plan(*sys, 0, dests, {}, {});
  ASSERT_EQ(plan.worms.size(), 1u);
  EXPECT_EQ(plan.worms[0].route->steps.size(), 1u);
  EXPECT_EQ(plan.worms[0].covered.size(), dests.size());
}

TEST(PathWorm, GreedyUsesNoMoreWormsThanLessGreedy) {
  const auto sys = System::Build({}, 9);
  std::vector<NodeId> dests;
  for (NodeId n = 1; n < 32; n += 2) dests.push_back(n);
  PathWormMdpLgScheme lg;
  PathWormMdpLgScheme greedy;
  greedy.less_greedy = false;
  const auto plan_lg = lg.Plan(*sys, 0, dests, {}, {});
  const auto plan_greedy = greedy.Plan(*sys, 0, dests, {}, {});
  EXPECT_LE(plan_greedy.worms.size(), plan_lg.worms.size());
}

TEST(PathWorm, MoreSwitchesMeansMoreWorms) {
  // The paper's Section 4.2.2 driver: spreading 32 nodes over more
  // switches lowers destinations-per-switch, so covering the same set
  // takes more worms.
  TopologySpec few, many;
  few.num_switches = 8;
  many.num_switches = 32;
  std::size_t worms_few = 0, worms_many = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto sys_few = System::Build(few, seed);
    const auto sys_many = System::Build(many, seed);
    PathWormMdpLgScheme scheme;
    std::vector<NodeId> dests;
    for (NodeId n = 1; n < 32; n += 2) dests.push_back(n);
    worms_few += scheme.Plan(*sys_few, 0, dests, {}, {}).worms.size();
    worms_many += scheme.Plan(*sys_many, 0, dests, {}, {}).worms.size();
  }
  EXPECT_GT(worms_many, worms_few);
}


TEST(PathWormTiming, SecondarySourcesSendOnlyAfterFullReceipt) {
  // The multi-phase property the executor must honour: a covered
  // destination launches its phase-(i+1) worms only after the whole
  // message is at its host (store-and-forward per phase).
  const auto sys = System::Build({}, 23);
  SimConfig cfg;
  cfg.message.num_packets = 2;
  Tracer tracer;
  Engine engine;
  McastDriver driver(engine, *sys, cfg, &tracer);
  PathWormMdpLgScheme scheme;
  std::vector<NodeId> dests;
  for (NodeId n = 1; n < 32; n += 2) dests.push_back(n);
  const auto id = driver.Launch(
      scheme.Plan(*sys, 0, dests, cfg.message, cfg.headers), 0,
      [](const MulticastResult&) {});
  engine.RunToQuiescence();

  std::map<NodeId, Cycles> delivered_at;
  for (const auto& e : tracer.OfMulticast(id))
    if (e.kind == TraceKind::kHostDeliver) delivered_at[e.actor] = e.time;
  int secondary_sends = 0;
  for (const auto& e : tracer.OfMulticast(id)) {
    if (e.kind != TraceKind::kSendStart || e.actor == 0) continue;
    ++secondary_sends;
    ASSERT_TRUE(delivered_at.count(e.actor)) << "node " << e.actor;
    EXPECT_GE(e.time, delivered_at[e.actor]) << "node " << e.actor;
  }
  EXPECT_GT(secondary_sends, 0);  // the set needs multiple phases
}

TEST(PathWormTiming, WormCountMatchesSendStarts) {
  const auto sys = System::Build({}, 29);
  SimConfig cfg;
  Tracer tracer;
  Engine engine;
  McastDriver driver(engine, *sys, cfg, &tracer);
  PathWormMdpLgScheme scheme;
  std::vector<NodeId> dests;
  for (NodeId n = 2; n < 30; n += 3) dests.push_back(n);
  McastPlan plan = scheme.Plan(*sys, 0, dests, cfg.message, cfg.headers);
  const auto worms = plan.worms.size();
  const auto id =
      driver.Launch(std::move(plan), 0, [](const MulticastResult&) {});
  engine.RunToQuiescence();
  std::size_t sends = 0;
  for (const auto& e : tracer.OfMulticast(id))
    if (e.kind == TraceKind::kSendStart) ++sends;
  EXPECT_EQ(sends, worms);
}

}  // namespace
}  // namespace irmc
