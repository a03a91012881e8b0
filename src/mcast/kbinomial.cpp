#include "mcast/kbinomial.hpp"

#include <algorithm>

#include "common/csr.hpp"
#include "common/expect.hpp"

namespace irmc {

void BuildCappedBinomialShape(int receivers, int k,
                              KBinomialScratch& scratch) {
  IRMC_EXPECT(receivers >= 0);
  IRMC_EXPECT(k >= 1);
  const auto n = static_cast<std::size_t>(receivers) + 1;
  std::vector<int>& begin = scratch.child_begin;
  std::vector<int>& parent = scratch.parent;
  // Rounds: every id adopted so far (ids 0..next-1, in adoption order)
  // that has fewer than k children adopts the next destination. While
  // growing, begin[u + 1] counts u's children.
  begin.assign(n + 1, 0);
  parent.assign(n, -1);
  int next = 1;
  while (next <= receivers) {
    const int round_holders = next;
    bool progressed = false;
    for (int holder = 0; holder < round_holders && next <= receivers;
         ++holder) {
      int& kids = begin[static_cast<std::size_t>(holder) + 1];
      if (kids >= k) continue;
      ++kids;
      parent[static_cast<std::size_t>(next)] = holder;
      ++next;
      progressed = true;
    }
    IRMC_ENSURE(progressed);  // k >= 1: fresh leaves always adopt
  }
  // Children in ascending id order, which is adoption order; item i of
  // the grouping is abstract id i + 1.
  GroupByKey(
      n, n - 1, [&parent](std::size_t i) { return parent[i + 1]; }, begin,
      scratch.child_list);
  for (int& c : scratch.child_list) ++c;
}

std::vector<std::vector<int>> BuildCappedBinomialShape(int receivers, int k) {
  KBinomialScratch scratch;
  BuildCappedBinomialShape(receivers, k, scratch);
  std::vector<std::vector<int>> children(
      static_cast<std::size_t>(receivers) + 1);
  for (std::size_t u = 0; u < children.size(); ++u)
    children[u].assign(scratch.child_list.begin() + scratch.child_begin[u],
                       scratch.child_list.begin() + scratch.child_begin[u + 1]);
  return children;
}

Cycles EvalFpfsCompletion(int receivers, int k, const MessageShape& shape,
                          const HostParams& host, int wire_flits,
                          Cycles net_pipe, KBinomialScratch& scratch) {
  BuildCappedBinomialShape(receivers, k, scratch);
  const auto m = static_cast<std::size_t>(shape.num_packets);
  const Cycles dma = host.DmaCycles(shape.packet_flits);
  const auto n = static_cast<std::size_t>(receivers) + 1;

  // pkt_avail[u * m + j]: time packet j is present at u's NI.
  std::vector<Cycles>& pkt_avail = scratch.pkt_avail;
  std::vector<Cycles>& ni_free = scratch.ni_free;
  pkt_avail.assign(n * m, 0);
  ni_free.assign(n, 0);
  for (std::size_t j = 0; j < m; ++j)
    pkt_avail[j] =
        host.o_host + host.o_ni + static_cast<Cycles>(j + 1) * dma;

  // Abstract ids are assigned in adoption order, so parents precede
  // children; a single forward pass is a valid evaluation order. FPFS:
  // iterate packets outer, children inner.
  Cycles completion = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const auto first = static_cast<std::size_t>(scratch.child_begin[u]);
    const auto last = static_cast<std::size_t>(scratch.child_begin[u + 1]);
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t i = first; i < last; ++i) {
        const auto c = static_cast<std::size_t>(scratch.child_list[i]);
        const Cycles start = std::max(ni_free[u], pkt_avail[u * m + j]);
        ni_free[u] = start + host.ni_forward_overhead + wire_flits;
        pkt_avail[c * m + j] = ni_free[u] + net_pipe;
      }
    }
    if (u > 0) {
      const Cycles done = pkt_avail[u * m + m - 1] + dma + host.o_host;
      completion = std::max(completion, done);
    }
  }
  return completion;
}

Cycles EvalFpfsCompletion(int receivers, int k, const MessageShape& shape,
                          const HostParams& host, int wire_flits,
                          Cycles net_pipe) {
  KBinomialScratch scratch;
  return EvalFpfsCompletion(receivers, k, shape, host, wire_flits, net_pipe,
                            scratch);
}

int ChooseK(int receivers, const MessageShape& shape, const HostParams& host,
            int wire_flits, Cycles net_pipe, int kmax,
            KBinomialScratch& scratch) {
  IRMC_EXPECT(receivers >= 1);
  int best_k = 1;
  Cycles best = EvalFpfsCompletion(receivers, 1, shape, host, wire_flits,
                                   net_pipe, scratch);
  for (int k = 2; k <= kmax; ++k) {
    const Cycles t = EvalFpfsCompletion(receivers, k, shape, host, wire_flits,
                                        net_pipe, scratch);
    if (t < best) {
      best = t;
      best_k = k;
    }
  }
  return best_k;
}

int ChooseK(int receivers, const MessageShape& shape, const HostParams& host,
            int wire_flits, Cycles net_pipe, int kmax) {
  KBinomialScratch scratch;
  return ChooseK(receivers, shape, host, wire_flits, net_pipe, kmax, scratch);
}

void AssignShapeChildren(const KBinomialScratch& scratch, NodeId src,
                         const std::vector<NodeId>& ordered, McastPlan& plan) {
  auto real = [&](int abstract) {
    return abstract == 0 ? src
                         : ordered[static_cast<std::size_t>(abstract - 1)];
  };
  for (std::size_t u = 0; u + 1 < scratch.child_begin.size(); ++u) {
    const auto first = static_cast<std::size_t>(scratch.child_begin[u]);
    const auto last = static_cast<std::size_t>(scratch.child_begin[u + 1]);
    if (first == last) continue;
    auto& kids =
        plan.children[static_cast<std::size_t>(real(static_cast<int>(u)))];
    kids.reserve(kids.size() + (last - first));
    for (std::size_t i = first; i < last; ++i)
      kids.push_back(real(scratch.child_list[i]));
  }
}

std::vector<NodeId> OrderDestsBySwitch(const System& sys, NodeId src,
                                       const std::vector<NodeId>& dests) {
  const SwitchId home = sys.graph.SwitchOf(src);
  std::vector<NodeId> ordered = dests;
  std::sort(ordered.begin(), ordered.end(), [&](NodeId a, NodeId b) {
    const SwitchId sa = sys.graph.SwitchOf(a);
    const SwitchId sb = sys.graph.SwitchOf(b);
    if (sa != sb) {
      const int da = sys.routing.Distance(home, sa);
      const int db = sys.routing.Distance(home, sb);
      if (da != db) return da < db;
      return sa < sb;
    }
    return a < b;
  });
  return ordered;
}

McastPlan KBinomialNiScheme::Plan(const System& sys, NodeId src,
                                  const std::vector<NodeId>& dests,
                                  const MessageShape& shape,
                                  const HeaderSizing& headers) const {
  McastPlan plan;
  plan.scheme = SchemeKind::kNiKBinomial;
  plan.root = src;
  plan.dests = dests;
  plan.children.assign(static_cast<std::size_t>(sys.num_nodes()), {});

  const int wire = shape.packet_flits + headers.UnicastFlits();
  // Representative network pipeline latency for the k model: mean route
  // of ~3 switch hops plus the forwarding NI's receive and send
  // overheads (both o_ni, per Section 4.2.1 of the paper).
  const Cycles net_pipe = 3 * 3 + 2 * host.o_ni;
  int k = forced_k;
  if (k <= 0) {
    const int receivers = static_cast<int>(dests.size());
    for (const KChoice& c : k_memo_)
      if (c.receivers == receivers && c.wire == wire && c.shape == shape &&
          c.host == host) {
        k = c.k;
        break;
      }
    if (k <= 0) {
      k = ChooseK(receivers, shape, host, wire, net_pipe, 8, scratch_);
      k_memo_.push_back(KChoice{receivers, shape, wire, host, k});
    }
  }
  plan.chosen_k = k;

  BuildCappedBinomialShape(static_cast<int>(dests.size()), k, scratch_);
  AssignShapeChildren(scratch_, src, OrderDestsBySwitch(sys, src, dests),
                      plan);
  return plan;
}

}  // namespace irmc
