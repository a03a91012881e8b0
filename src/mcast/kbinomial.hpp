// k-binomial trees for NI-supported multicast (paper Section 3.2.1).
//
// Construction follows the paper's definition: a recursively doubling
// tree in which each vertex has at most k children. Growth is round
// based — in every round each message holder with fewer than k children
// adopts the next destination — which doubles coverage per round until
// the cap bites.
//
// The value of k "is a function of the size of the multicast set and the
// number of packets in the multicast message": we choose it by exact
// evaluation of the FPFS completion-time recurrence over candidate k
// (an NI forwards packet j to all k children before packet j+1, each
// copy serialising on the injection channel), reconstructing the method
// of [Kesavan & Panda, ICPP'98].
#pragma once

#include <vector>

#include "core/config.hpp"
#include "mcast/scheme.hpp"

namespace irmc {

/// Reusable buffers for the capped-binomial shape and the FPFS model.
/// The shape is flat: the children of abstract id u, in adoption order,
/// are child_list[child_begin[u] .. child_begin[u + 1]). Reusing one
/// scratch across calls makes shape building and evaluation
/// allocation-free once its vectors have grown.
struct KBinomialScratch {
  std::vector<int> child_begin;
  std::vector<int> child_list;
  std::vector<int> parent;         ///< parent[c], c >= 1 (adoption order)
  std::vector<Cycles> pkt_avail;   ///< [u * packets + j]
  std::vector<Cycles> ni_free;
};

/// Round-based capped-binomial tree over abstract ids 0..receivers
/// (0 is the root). children[i] lists i's children in adoption order.
std::vector<std::vector<int>> BuildCappedBinomialShape(int receivers, int k);
/// The same tree into scratch.child_begin / scratch.child_list.
void BuildCappedBinomialShape(int receivers, int k, KBinomialScratch& scratch);

/// FPFS completion-time model for a k-capped tree: time until the last
/// receiver has the whole message at its host. `wire_flits` is the
/// per-packet on-wire length; `net_pipe` the source-to-destination
/// network pipeline latency excluding serialisation.
Cycles EvalFpfsCompletion(int receivers, int k, const MessageShape& shape,
                          const HostParams& host, int wire_flits,
                          Cycles net_pipe);
Cycles EvalFpfsCompletion(int receivers, int k, const MessageShape& shape,
                          const HostParams& host, int wire_flits,
                          Cycles net_pipe, KBinomialScratch& scratch);

/// argmin over k in [1, kmax] of EvalFpfsCompletion (first minimum).
int ChooseK(int receivers, const MessageShape& shape, const HostParams& host,
            int wire_flits, Cycles net_pipe, int kmax = 8);
int ChooseK(int receivers, const MessageShape& shape, const HostParams& host,
            int wire_flits, Cycles net_pipe, int kmax,
            KBinomialScratch& scratch);

/// Writes the flat shape in `scratch` onto real nodes — abstract id 0 is
/// `src`, id i > 0 is ordered[i - 1] — appending to plan.children.
void AssignShapeChildren(const KBinomialScratch& scratch, NodeId src,
                         const std::vector<NodeId>& ordered, McastPlan& plan);

/// Orders destinations so that nodes sharing a switch are contiguous and
/// switches appear by (distance from the source's switch, id) — the
/// contention-reducing mapping for irregular networks.
std::vector<NodeId> OrderDestsBySwitch(const System& sys, NodeId src,
                                       const std::vector<NodeId>& dests);

class KBinomialNiScheme final : public MulticastScheme {
 public:
  SchemeKind kind() const override { return SchemeKind::kNiKBinomial; }
  McastPlan Plan(const System& sys, NodeId src,
                 const std::vector<NodeId>& dests, const MessageShape& shape,
                 const HeaderSizing& headers) const override;

  /// Fix k instead of model-choosing it (ablation benches); 0 = auto.
  int forced_k = 0;
  /// Host parameters used by the k-choice model.
  HostParams host;

 private:
  /// The model's k depends only on these inputs, so each instance
  /// remembers its choices. The memo and the scratch make Plan unsafe to
  /// call concurrently on one instance; every caller owns its scheme
  /// per trial or per call.
  struct KChoice {
    int receivers;
    MessageShape shape;
    int wire;
    HostParams host;
    int k;
  };
  mutable std::vector<KChoice> k_memo_;
  mutable KBinomialScratch scratch_;
};

}  // namespace irmc
