// Random irregular topology generation (paper Section 4.1: "Our method
// for generating different irregular topologies is described in [13]").
//
// The reconstruction: hosts are spread as evenly as possible over the
// switches (random assignment of the remainder), a random spanning tree
// guarantees connectivity, and additional random switch-switch links are
// added until a target fraction of the remaining ports is wired. Ports
// left over stay open "for further connections", as in the paper's
// example system.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "topology/graph.hpp"

namespace irmc {

struct TopologySpec {
  int num_switches = 8;
  int ports_per_switch = 8;
  int num_hosts = 32;
  /// Fraction of switch ports remaining after host attachment that the
  /// generator tries to wire into switch-switch links.
  double link_utilization = 0.8;
  /// Permit multiple parallel links between one switch pair (the paper
  /// explicitly allows them).
  bool allow_parallel_links = true;
};

/// Generates a connected irregular topology. Deterministic in `seed`.
/// Aborts (precondition) when spec.num_hosts exceeds MaxHostsFor, for
/// every seed.
Graph GenerateTopology(const TopologySpec& spec, std::uint64_t seed);

/// The most hosts GenerateTopology places on `num_switches` switches of
/// `ports_per_switch` ports for every seed. Each switch keeps a port for
/// the spanning tree; beyond two switches at most one may keep only
/// that one, since two such switches drawn first into the random tree
/// would leave it no free port to grow from.
long MaxHostsFor(int num_switches, int ports_per_switch);

}  // namespace irmc
