#include "mcast/kbinomial.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <set>

#include "core/single_runner.hpp"
#include "topology/system.hpp"

namespace irmc {
namespace {

TEST(EvalFpfsCompletion, SinglePacketPrefersWideTrees) {
  // One packet: more children per round reaches everyone sooner, so the
  // completion time is non-increasing in k up to the binomial optimum.
  MessageShape one_pkt{128, 1};
  HostParams host;
  const Cycles k1 = EvalFpfsCompletion(15, 1, one_pkt, host, 130, 209);
  const Cycles k4 = EvalFpfsCompletion(15, 4, one_pkt, host, 130, 209);
  EXPECT_LT(k4, k1);
}

TEST(EvalFpfsCompletion, ManyPacketsPreferNarrowTrees) {
  // 16 packets: a chain (k=1) pipelines packets and beats a wide tree
  // whose root serializes 16*k copies.
  MessageShape long_msg{128, 16};
  HostParams host;
  const Cycles k1 = EvalFpfsCompletion(15, 1, long_msg, host, 130, 209);
  const Cycles k8 = EvalFpfsCompletion(15, 8, long_msg, host, 130, 209);
  EXPECT_LT(k1, k8);
}

TEST(EvalFpfsCompletion, MonotoneInReceivers) {
  MessageShape shape{128, 2};
  HostParams host;
  Cycles prev = 0;
  for (int n = 1; n <= 31; n *= 2) {
    const Cycles t = EvalFpfsCompletion(n, 3, shape, host, 130, 209);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(EvalFpfsCompletion, MonotoneInPackets) {
  HostParams host;
  Cycles prev = 0;
  for (int m = 1; m <= 8; ++m) {
    const Cycles t =
        EvalFpfsCompletion(15, 3, MessageShape{128, m}, host, 130, 209);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(ChooseK, SinglePacketChoosesWiderThanLongMessage) {
  HostParams host;
  const int k_short = ChooseK(31, MessageShape{128, 1}, host, 130, 209);
  const int k_long = ChooseK(31, MessageShape{128, 16}, host, 130, 209);
  EXPECT_GE(k_short, k_long);
  EXPECT_GE(k_long, 1);
}

TEST(ChooseK, MatchesExhaustiveMinimum) {
  HostParams host;
  for (int m : {1, 2, 4, 8}) {
    const MessageShape shape{128, m};
    const int k = ChooseK(15, shape, host, 130, 209);
    const Cycles at_k = EvalFpfsCompletion(15, k, shape, host, 130, 209);
    for (int other = 1; other <= 8; ++other)
      EXPECT_LE(at_k, EvalFpfsCompletion(15, other, shape, host, 130, 209));
  }
}

class KBinomialPlanSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KBinomialPlanSweep, PlanIsValidTree) {
  const auto [size, packets] = GetParam();
  const auto sys = System::Build({}, 17);
  KBinomialNiScheme scheme;
  MessageShape shape{128, packets};
  std::vector<NodeId> dests;
  for (NodeId n = 1; n <= size; ++n) dests.push_back(n);
  const McastPlan plan = scheme.Plan(*sys, 0, dests, shape, {});

  EXPECT_GE(plan.chosen_k, 1);
  std::set<NodeId> seen{0};
  std::queue<NodeId> frontier;
  frontier.push(0);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    const auto& kids = plan.children[static_cast<std::size_t>(u)];
    EXPECT_LE(static_cast<int>(kids.size()), plan.chosen_k);
    for (NodeId c : kids) {
      EXPECT_TRUE(seen.insert(c).second);
      frontier.push(c);
    }
  }
  EXPECT_EQ(seen.size(), dests.size() + 1);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPackets, KBinomialPlanSweep,
    ::testing::Combine(::testing::Values(1, 4, 8, 15, 31),
                       ::testing::Values(1, 4, 16)));

TEST(KBinomialPlan, ForcedKOverridesModel) {
  const auto sys = System::Build({}, 17);
  KBinomialNiScheme scheme;
  scheme.forced_k = 2;
  std::vector<NodeId> dests;
  for (NodeId n = 1; n <= 15; ++n) dests.push_back(n);
  const McastPlan plan = scheme.Plan(*sys, 0, dests, {}, {});
  EXPECT_EQ(plan.chosen_k, 2);
  for (const auto& kids : plan.children)
    EXPECT_LE(static_cast<int>(kids.size()), 2);
}

TEST(KBinomialPlan, NonParticipantsHaveNoChildren) {
  const auto sys = System::Build({}, 17);
  KBinomialNiScheme scheme;
  const McastPlan plan = scheme.Plan(*sys, 0, {1, 2, 3}, {}, {});
  std::set<NodeId> participants{0, 1, 2, 3};
  for (NodeId n = 0; n < sys->num_nodes(); ++n) {
    if (!participants.count(n)) {
      EXPECT_TRUE(plan.children[static_cast<std::size_t>(n)].empty());
    }
  }
}


// --- flat evaluation vs the nested-vector reference ---------------------

/// The nested-vector capped-binomial builder and FPFS recurrence the
/// flat planner replaced, kept verbatim as the reference.
std::vector<std::vector<int>> ReferenceShape(int receivers, int k) {
  std::vector<std::vector<int>> children(
      static_cast<std::size_t>(receivers) + 1);
  std::vector<int> have{0};
  int next = 1;
  while (next <= receivers) {
    const std::size_t round_holders = have.size();
    for (std::size_t i = 0; i < round_holders && next <= receivers; ++i) {
      const int holder = have[i];
      if (static_cast<int>(children[static_cast<std::size_t>(holder)].size()) >=
          k)
        continue;
      children[static_cast<std::size_t>(holder)].push_back(next);
      have.push_back(next);
      ++next;
    }
  }
  return children;
}

Cycles ReferenceFpfs(int receivers, int k, const MessageShape& shape,
                     const HostParams& host, int wire_flits, Cycles net_pipe) {
  const auto children = ReferenceShape(receivers, k);
  const int m = shape.num_packets;
  const Cycles dma = host.DmaCycles(shape.packet_flits);
  const auto n = static_cast<std::size_t>(receivers) + 1;
  std::vector<std::vector<Cycles>> pkt_avail(
      n, std::vector<Cycles>(static_cast<std::size_t>(m), 0));
  std::vector<Cycles> ni_free(n, 0);
  for (int j = 0; j < m; ++j)
    pkt_avail[0][static_cast<std::size_t>(j)] =
        host.o_host + host.o_ni + static_cast<Cycles>(j + 1) * dma;
  Cycles completion = 0;
  for (std::size_t u = 0; u < n; ++u) {
    for (int j = 0; j < m; ++j) {
      for (int c : children[u]) {
        const Cycles start =
            std::max(ni_free[u], pkt_avail[u][static_cast<std::size_t>(j)]);
        ni_free[u] = start + host.ni_forward_overhead + wire_flits;
        pkt_avail[static_cast<std::size_t>(c)][static_cast<std::size_t>(j)] =
            ni_free[u] + net_pipe;
      }
    }
    if (u > 0) {
      const Cycles done = pkt_avail[u][static_cast<std::size_t>(m - 1)] +
                          dma + host.o_host;
      completion = std::max(completion, done);
    }
  }
  return completion;
}

TEST(FlatPlanner, MatchesNestedReferenceOverTheWholeGrid) {
  // One scratch shared across the whole sweep, visited in an order that
  // shrinks and regrows every buffer, so stale contents would show.
  HostParams host;
  host.ni_forward_overhead = 35;
  KBinomialScratch scratch;
  for (int receivers = 64; receivers >= 1; --receivers) {
    for (int packets = 1; packets <= 8; ++packets) {
      const MessageShape shape{64, packets};
      for (int k = 1; k <= 8; ++k) {
        const auto want = ReferenceShape(receivers, k);
        EXPECT_EQ(BuildCappedBinomialShape(receivers, k), want)
            << receivers << " receivers, k " << k;
        EXPECT_EQ(EvalFpfsCompletion(receivers, k, shape, host, 66, 1009,
                                     scratch),
                  ReferenceFpfs(receivers, k, shape, host, 66, 1009))
            << receivers << " receivers, k " << k << ", " << packets
            << " packets";
      }
      int best_k = 1;
      for (int k = 2; k <= 8; ++k)
        if (ReferenceFpfs(receivers, k, shape, host, 66, 1009) <
            ReferenceFpfs(receivers, best_k, shape, host, 66, 1009))
          best_k = k;
      EXPECT_EQ(ChooseK(receivers, shape, host, 66, 1009, 8, scratch), best_k)
          << receivers << " receivers, " << packets << " packets";
    }
  }
}

TEST(FlatPlanner, RememberedKFollowsEveryModelInput) {
  // A scheme reused across calls must choose the same k as a fresh one,
  // also after its host parameters or the message shape change.
  const auto sys = System::Build({}, 17);
  KBinomialNiScheme reused;
  for (int round = 0; round < 2; ++round) {
    for (Cycles o_ni : {100, 500, 2000}) {
      for (int packets : {1, 4, 16}) {
        for (int size : {3, 15, 31}) {
          reused.host.o_ni = o_ni;
          KBinomialNiScheme fresh;
          fresh.host = reused.host;
          std::vector<NodeId> dests;
          for (NodeId n = 1; n <= size; ++n) dests.push_back(n);
          const MessageShape shape{128, packets};
          const McastPlan a = reused.Plan(*sys, 0, dests, shape, {});
          const McastPlan b = fresh.Plan(*sys, 0, dests, shape, {});
          EXPECT_EQ(a.chosen_k, b.chosen_k);
          EXPECT_EQ(a.children, b.children);
        }
      }
    }
  }
}

TEST(ChooseK, ModelPickNearSimulatedOptimumAcrossMessageLengths) {
  // The closed-form FPFS model need not be exact, but its chosen k must
  // stay within 15% of the best simulated k (the guarantee ablC relies
  // on).
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  for (int m : {1, 2, 4, 8}) {
    cfg.message.num_packets = m;
    std::vector<NodeId> dests;
    for (NodeId n = 1; n <= 15; ++n) dests.push_back(n);
    double best = 0.0;
    double chosen_latency = 0.0;
    const int chosen =
        ChooseK(15, cfg.message, cfg.host, 130, 9 + 2 * cfg.host.o_ni);
    for (int k = 1; k <= 8; ++k) {
      KBinomialNiScheme scheme;
      scheme.host = cfg.host;
      scheme.forced_k = k;
      const auto r = PlayOnce(
          *sys, cfg,
          scheme.Plan(*sys, 0, dests, cfg.message, cfg.headers));
      const auto latency = static_cast<double>(r.Latency());
      if (best == 0.0 || latency < best) best = latency;
      if (k == chosen) chosen_latency = latency;
    }
    EXPECT_LE(chosen_latency, best * 1.15) << "packets=" << m;
  }
}

}  // namespace
}  // namespace irmc
