#include "topology/generator.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace irmc {
namespace {

// Sweep the paper's topology sizes over many seeds.
class GeneratorSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(GeneratorSweep, ProducesValidTopology) {
  const auto [switches, hosts, seed] = GetParam();
  TopologySpec spec;
  spec.num_switches = switches;
  spec.num_hosts = hosts;
  spec.ports_per_switch = 8;
  const Graph g = GenerateTopology(spec, seed);

  EXPECT_EQ(g.num_switches(), switches);
  EXPECT_EQ(g.num_hosts(), hosts);
  EXPECT_TRUE(g.Connected());
  // Spanning tree alone needs switches-1 links.
  EXPECT_GE(g.NumLinks(), switches - 1);

  // Port bookkeeping is self-consistent.
  int host_ports = 0, switch_ports = 0;
  for (SwitchId s = 0; s < switches; ++s) {
    for (PortId p = 0; p < g.ports_per_switch(); ++p) {
      const Port& pt = g.port(s, p);
      if (pt.kind == PortKind::kHost) {
        ++host_ports;
        EXPECT_EQ(g.SwitchOf(pt.host), s);
      } else if (pt.kind == PortKind::kSwitch) {
        ++switch_ports;
        EXPECT_NE(pt.peer_switch, s);  // no self-links
        // Back-pointer consistency.
        const Port& back = g.port(pt.peer_switch, pt.peer_port);
        EXPECT_EQ(back.peer_switch, s);
        EXPECT_EQ(back.peer_port, p);
      }
    }
  }
  EXPECT_EQ(host_ports, hosts);
  EXPECT_EQ(switch_ports, 2 * g.NumLinks());
}

INSTANTIATE_TEST_SUITE_P(
    PaperSizes, GeneratorSweep,
    ::testing::Combine(::testing::Values(8, 16, 32),  // switches
                       ::testing::Values(32),         // hosts
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 99u)));

TEST(Generator, DeterministicInSeed) {
  TopologySpec spec;
  const Graph a = GenerateTopology(spec, 7);
  const Graph b = GenerateTopology(spec, 7);
  ASSERT_EQ(a.NumLinks(), b.NumLinks());
  for (SwitchId s = 0; s < a.num_switches(); ++s)
    for (PortId p = 0; p < a.ports_per_switch(); ++p) {
      EXPECT_EQ(a.port(s, p).kind, b.port(s, p).kind);
      EXPECT_EQ(a.port(s, p).peer_switch, b.port(s, p).peer_switch);
      EXPECT_EQ(a.port(s, p).host, b.port(s, p).host);
    }
}

TEST(Generator, SeedsProduceDifferentTopologies) {
  TopologySpec spec;
  const Graph a = GenerateTopology(spec, 1);
  const Graph b = GenerateTopology(spec, 2);
  bool differs = a.NumLinks() != b.NumLinks();
  for (SwitchId s = 0; !differs && s < a.num_switches(); ++s)
    for (PortId p = 0; !differs && p < a.ports_per_switch(); ++p)
      differs = a.port(s, p).kind != b.port(s, p).kind ||
                a.port(s, p).peer_switch != b.port(s, p).peer_switch;
  EXPECT_TRUE(differs);
}

TEST(Generator, HostsSpreadEvenly) {
  TopologySpec spec;  // 32 hosts / 8 switches = exactly 4 each
  const Graph g = GenerateTopology(spec, 3);
  for (SwitchId s = 0; s < g.num_switches(); ++s)
    EXPECT_EQ(static_cast<int>(g.HostsAt(s).size()), 4);
}

TEST(Generator, UnevenHostsDifferByAtMostOne) {
  TopologySpec spec;
  spec.num_hosts = 30;  // 30 over 8 switches
  const Graph g = GenerateTopology(spec, 3);
  int lo = 99, hi = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    const int c = static_cast<int>(g.HostsAt(s).size());
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_LE(hi - lo, 1);
}

TEST(Generator, NoParallelLinksWhenDisallowed) {
  TopologySpec spec;
  spec.allow_parallel_links = false;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = GenerateTopology(spec, seed);
    for (SwitchId s = 0; s < g.num_switches(); ++s) {
      std::vector<int> peer_count(static_cast<std::size_t>(g.num_switches()),
                                  0);
      for (PortId p = 0; p < g.ports_per_switch(); ++p)
        if (g.port(s, p).kind == PortKind::kSwitch)
          ++peer_count[static_cast<std::size_t>(g.port(s, p).peer_switch)];
      for (int c : peer_count) EXPECT_LE(c, 1);
    }
  }
}

TEST(Generator, LinkUtilizationZeroGivesSpanningTreeOnly) {
  TopologySpec spec;
  spec.link_utilization = 0.0;
  const Graph g = GenerateTopology(spec, 11);
  EXPECT_EQ(g.NumLinks(), spec.num_switches - 1);
}

TEST(Generator, MaxHostsForFitsEverySeed) {
  // At the limit every seed must build; one node more leaves too few
  // free ports for some random spanning-tree orders (the CLIs reject it).
  for (int switches = 1; switches <= 6; ++switches) {
    for (int ports = 2; ports <= 6; ++ports) {
      TopologySpec spec;
      spec.num_switches = switches;
      spec.ports_per_switch = ports;
      spec.num_hosts = static_cast<int>(MaxHostsFor(switches, ports));
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const Graph g = GenerateTopology(spec, seed);
        EXPECT_EQ(g.num_hosts(), spec.num_hosts);
        EXPECT_TRUE(g.Connected());
      }
    }
  }
}

TEST(GeneratorDeathTest, RejectsHostsBeyondMaxHostsForAtEverySeed) {
  // Four 8-port switches hold 28 hosts with a port each to spare, yet
  // MaxHostsFor allows 25: past it, whether the random spanning tree can
  // grow depends on the seed, so every seed must be refused up front.
  TopologySpec spec;
  spec.num_switches = 4;
  spec.ports_per_switch = 8;
  ASSERT_EQ(MaxHostsFor(spec.num_switches, spec.ports_per_switch), 25);
  for (const int hosts : {26, 28}) {
    spec.num_hosts = hosts;
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
      EXPECT_DEATH(GenerateTopology(spec, seed), "exceed MaxHostsFor");
  }
}

}  // namespace
}  // namespace irmc
