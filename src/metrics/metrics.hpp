// Always-on metrics: counters, gauges, and log-binned histograms.
//
// Every Trial owns one MetricsRegistry; the fabric, flit engine,
// resilience manager, and McastDriver resolve their Counter/Histogram
// slots from it once at construction, so a hot-path record is an
// unguarded integer add. Recording is always on: the registry is a
// required dependency below McastDriver, which binds to a registry of
// its own when a caller passes none.
//
// Determinism contract: every metric value is either an integer
// (counters, histogram bins/sum/min/max) or a double combined by an
// order-independent operation (gauge max/min) or summed in trial-index
// order by TrialOutcome::Merge. Exports sort by name. A parallel sweep
// therefore serialises to byte-identical JSON for any IRMC_THREADS
// value — the same per-trial-ownership + ordered-merge pattern the
// Tracer uses (trace/tracer.hpp), so neither forces serial execution.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace irmc {

/// Monotonic event/quantity count. Merge = sum (exact, associative).
struct Counter {
  std::int64_t value = 0;

  void Add(std::int64_t delta = 1) { value += delta; }
};

/// How two gauges combine when registries merge.
enum class GaugeMode : std::uint8_t {
  kSum,  ///< totals (merged in trial-index order -> deterministic)
  kMax,  ///< high-water marks (order-independent)
  kMin,  ///< low-water marks (order-independent)
};

const char* ToString(GaugeMode mode);

/// Point-in-time measurement. `set` distinguishes "never recorded" from
/// a recorded zero so kMax/kMin merges ignore untouched gauges.
struct Gauge {
  double value = 0.0;
  bool set = false;
  GaugeMode mode = GaugeMode::kSum;

  void Set(double v);           ///< combine `v` into the gauge per mode
  void Merge(const Gauge& other);
};

/// Log2-binned histogram of non-negative integer samples (cycles,
/// fan-outs, flit counts). Bin 0 holds values <= 0; bin b >= 1 holds
/// [2^(b-1), 2^b). All state is integral, so Merge is exact and
/// associative.
class Histogram {
 public:
  static constexpr int kBins = 64;

  void Add(std::int64_t v);
  void Merge(const Histogram& other);

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return min_; }  ///< requires count() > 0
  std::int64_t max() const { return max_; }  ///< requires count() > 0
  double Mean() const;
  std::int64_t bin(int b) const { return bins_.at(static_cast<std::size_t>(b)); }

  /// Quantile estimate from the log2 bins (see BinnedQuantile); exact at
  /// q=0 and q=1 (returns min/max), interpolated in between. Requires
  /// count() > 0 and q in [0,1].
  double Quantile(double q) const;

  /// Bin index a value lands in.
  static int BinOf(std::int64_t v);
  /// Inclusive lower edge of a bin (0 for bin 0).
  static std::int64_t BinLower(int b);
  /// Exclusive upper edge of a bin.
  static std::int64_t BinUpper(int b);

 private:
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::array<std::int64_t, kBins> bins_{};
};

/// One occupied bin of a serialised histogram: [lower, upper) with
/// `count` samples. The report layer parses ledger/sidecar JSON into
/// this shape and derives the same quantiles the live Histogram does.
struct BinSlice {
  std::int64_t lower = 0;
  std::int64_t upper = 0;  ///< exclusive
  std::int64_t count = 0;
};

/// Quantile estimate over binned samples — the single definition used by
/// the live Histogram, the metrics CSV export, and the run ledger/diff
/// layer (tests/test_metrics.cpp pins it against exact sample sets).
///
/// Convention (matches SampleSet::Quantile's fractional rank):
///   r = q * (total - 1); the value at integer rank k is read from the
///   bin holding k, with the bin's samples spread linearly over its
///   effective inclusive range [max(lower, min_v), min(upper-1, max_v)]
///   (a single-sample bin reads its range midpoint); fractional ranks
///   interpolate linearly between adjacent integer ranks.
/// `bins` must be ascending and non-overlapping with positive counts;
/// requires a positive total count and q in [0,1].
double BinnedQuantile(const std::vector<BinSlice>& bins, std::int64_t min_v,
                      std::int64_t max_v, double q);

/// Named metric store. Get* interns the name on first use and returns a
/// reference that stays valid for the registry's lifetime (node-based
/// map), so callers resolve once and record through the pointer.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name, GaugeMode mode = GaugeMode::kSum);
  Histogram& GetHistogram(const std::string& name);

  /// Union-merge: counters add, gauges combine per their mode (modes
  /// must agree), histogram bins add. Applied in trial-index order by
  /// TrialOutcome::Merge, which makes the result thread-count-invariant.
  void Merge(const MetricsRegistry& other);

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  bool Empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace irmc
