// Spans recorded around the library calls the benchmark driver makes.
//
// A Scope wraps one call into a library layer. In a traced pass it
// appends a span (layer, tag, parent, start/end steady-clock time,
// allocation counter at start/end) to the Recorder's in-memory log; the
// log is summarised into per-layer self time and self allocations after
// the pass and written to a file when the benchmark exits. In an
// untraced pass a Scope costs one branch, except for scopes marked as
// set-up, which always read the clock so that setup_s is measured on the
// untraced run too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kPass,          ///< one pass over the workload (structure, not a layer)
  kPoint,         ///< one sweep point (structure, not a layer)
  kTopoBuild,     ///< SystemBuilder::Build / System::Build
  kFaultRebuild,  ///< WithoutLink + System rebuild on the degraded graph
  kDriverNew,     ///< McastDriver constructor (network model included)
  kSeed,          ///< scheme construction + initial traffic scheduling
  kPlan,          ///< MulticastScheme::Plan (tag = scheme)
  kLaunch,        ///< McastDriver::Launch
  kRun,           ///< Engine::RunUntil / RunToQuiescence
  kCollect,       ///< Engine / NetworkModel::CollectMetrics
  kInvariants,    ///< verify::VerifySystem (base checks)
  kDeadlock,      ///< verify::CheckMulticastDeadlock
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  std::int32_t parent = -1;
  Layer layer = Layer::kPass;
  std::uint8_t tag = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t alloc_start = 0;
  std::uint64_t alloc_end = 0;
};

/// Nanoseconds on the steady clock.
std::int64_t NowNs();

class Recorder {
 public:
  /// Starts a pass: clears the span log and the set-up clock.
  void BeginPass(bool traced);

  bool traced() const { return traced_; }
  double setup_s() const { return static_cast<double>(setup_ns_) * 1e-9; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Appends this pass's spans as tab-separated lines
  /// (pass, index, parent, layer, tag, start_ns, end_ns, allocs).
  void AppendTsv(int pass, std::string* out) const;

 private:
  friend class Scope;
  bool traced_ = false;
  std::int32_t open_ = -1;
  std::int64_t setup_ns_ = 0;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Recorder& rec, Layer layer, bool setup = false, std::uint8_t tag = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& rec_;
  std::int32_t index_ = -1;
  bool setup_;
  std::int64_t start_ns_ = 0;
};

/// Per-layer totals derived from one pass's spans. Self values exclude
/// the part of a span's interval its child spans cover.
struct LayerTotals {
  long calls = 0;
  double self_s = 0.0;
  std::uint64_t self_allocs = 0;
  std::vector<double> durations_us;  ///< kPlan only: per-call wall time
};

struct PassSummary {
  /// Indexed by Layer, then tag (tags are used by kPlan only).
  std::vector<std::vector<LayerTotals>> layers;
  double pass_s = 0.0;
  double uncovered_s = 0.0;  ///< pass time no non-structural span covers
  std::size_t spans = 0;

  const LayerTotals& Of(Layer layer, std::uint8_t tag = 0) const;
};

PassSummary Summarize(const std::vector<Span>& spans, int tags);

}  // namespace perfbench
