#include "spans.hpp"

#include <chrono>
#include <cstdio>

#include "alloc_counter.hpp"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPass: return "bench.pass";
    case Layer::kPoint: return "bench.point";
    case Layer::kTopoBuild: return "topology.build";
    case Layer::kFaultRebuild: return "topology.fault_rebuild";
    case Layer::kDriverNew: return "core.driver_new";
    case Layer::kSeed: return "core.seed";
    case Layer::kPlan: return "mcast.plan";
    case Layer::kLaunch: return "core.launch";
    case Layer::kRun: return "sim.run";
    case Layer::kCollect: return "sim.collect";
    case Layer::kInvariants: return "verify.invariants";
    case Layer::kDeadlock: return "verify.deadlock";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Recorder::BeginPass(bool traced) {
  traced_ = traced;
  open_ = -1;
  setup_ns_ = 0;
  spans_.clear();  // keeps capacity: later traced passes do not regrow
}

void Recorder::AppendTsv(int pass, std::string* out) const {
  char line[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line, "%d\t%zu\t%d\t%s\t%u\t%lld\t%lld\t%llu\n",
                  pass, i, s.parent, LayerName(s.layer),
                  static_cast<unsigned>(s.tag),
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns),
                  static_cast<unsigned long long>(s.alloc_end - s.alloc_start));
    out->append(line);
  }
}

Scope::Scope(Recorder& rec, Layer layer, bool setup, std::uint8_t tag)
    : rec_(rec), setup_(setup) {
  if (!rec_.traced_) {
    if (setup_) start_ns_ = NowNs();
    return;
  }
  index_ = static_cast<std::int32_t>(rec_.spans_.size());
  Span span;
  span.parent = rec_.open_;
  span.layer = layer;
  span.tag = tag;
  rec_.spans_.push_back(span);
  rec_.open_ = index_;
  Span& s = rec_.spans_.back();
  s.alloc_start = AllocsNow().calls;
  s.start_ns = start_ns_ = NowNs();
}

Scope::~Scope() {
  const std::int64_t end = NowNs();
  if (setup_) rec_.setup_ns_ += end - start_ns_;
  if (index_ < 0) return;
  Span& s = rec_.spans_[static_cast<std::size_t>(index_)];
  s.end_ns = end;
  s.alloc_end = AllocsNow().calls;
  rec_.open_ = s.parent;
}

const LayerTotals& PassSummary::Of(Layer layer, std::uint8_t tag) const {
  return layers[static_cast<std::size_t>(layer)][tag];
}

PassSummary Summarize(const std::vector<Span>& spans, int tags) {
  PassSummary sum;
  sum.spans = spans.size();
  sum.layers.assign(static_cast<std::size_t>(Layer::kCount),
                    std::vector<LayerTotals>(static_cast<std::size_t>(tags)));
  // Child totals per span, so self = own - children.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::uint64_t> child_allocs(spans.size(), 0);
  const auto structural = [](Layer l) {
    return l == Layer::kPass || l == Layer::kPoint;
  };
  double covered_s = 0.0;
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    child_ns[p] += s.end_ns - s.start_ns;
    child_allocs[p] += s.alloc_end - s.alloc_start;
    if (!structural(s.layer) && structural(spans[p].layer))
      covered_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    if (s.layer == Layer::kPass && s.parent < 0)
      sum.pass_s += static_cast<double>(dur) * 1e-9;
    LayerTotals& t = sum.layers[static_cast<std::size_t>(s.layer)][s.tag];
    ++t.calls;
    t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
    t.self_allocs += (s.alloc_end - s.alloc_start) - child_allocs[i];
    if (s.layer == Layer::kPlan)
      t.durations_us.push_back(static_cast<double>(dur) * 1e-3);
  }
  sum.uncovered_s = sum.pass_s - covered_s;
  return sum;
}

}  // namespace perfbench
