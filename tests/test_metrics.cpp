// Metrics subsystem: histogram bin edges, merge associativity, export
// formats, and the determinism contract — a metrics-enabled parallel
// sweep must serialise to byte-identical JSON for any IRMC_THREADS.
#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/build_info.hpp"
#include "core/load_runner.hpp"
#include "core/parallel.hpp"
#include "core/single_runner.hpp"
#include "metrics/export.hpp"
#include "workloads/dsm.hpp"

namespace irmc {
namespace {

/// Restores the environment/default thread resolution on scope exit.
struct ThreadsGuard {
  ~ThreadsGuard() { SetParallelThreads(0); }
};

TEST(Counter, AddsAndDefaults) {
  Counter c;
  EXPECT_EQ(c.value, 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value, 42);
}

TEST(Histogram, BinEdges) {
  // Bin 0: v <= 0. Bin b >= 1: [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BinOf(-5), 0);
  EXPECT_EQ(Histogram::BinOf(0), 0);
  EXPECT_EQ(Histogram::BinOf(1), 1);
  EXPECT_EQ(Histogram::BinOf(2), 2);
  EXPECT_EQ(Histogram::BinOf(3), 2);
  EXPECT_EQ(Histogram::BinOf(4), 3);
  EXPECT_EQ(Histogram::BinOf(7), 3);
  EXPECT_EQ(Histogram::BinOf(8), 4);
  EXPECT_EQ(Histogram::BinOf(1023), 10);
  EXPECT_EQ(Histogram::BinOf(1024), 11);

  for (int b = 1; b < Histogram::kBins - 1; ++b) {
    // Every bin's edges are self-consistent: the lower edge lands in the
    // bin, the value just below the upper edge lands in the bin, and the
    // upper edge itself lands in the next.
    EXPECT_EQ(Histogram::BinOf(Histogram::BinLower(b)), b) << b;
    EXPECT_EQ(Histogram::BinOf(Histogram::BinUpper(b) - 1), b) << b;
    EXPECT_EQ(Histogram::BinOf(Histogram::BinUpper(b)), b + 1) << b;
  }
  EXPECT_EQ(Histogram::BinLower(0), 0);
  EXPECT_EQ(Histogram::BinLower(1), 1);
  EXPECT_EQ(Histogram::BinLower(2), 2);
  EXPECT_EQ(Histogram::BinLower(3), 4);
  EXPECT_EQ(Histogram::BinUpper(3), 8);
}

TEST(Histogram, TracksCountSumMinMax) {
  Histogram h;
  for (std::int64_t v : {5, 1, 9, 9, 0}) h.Add(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 24);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 9);
  EXPECT_DOUBLE_EQ(h.Mean(), 24.0 / 5.0);
  EXPECT_EQ(h.bin(0), 1);  // the 0
  EXPECT_EQ(h.bin(1), 1);  // the 1
  EXPECT_EQ(h.bin(3), 1);  // the 5
  EXPECT_EQ(h.bin(4), 2);  // the two 9s
}

TEST(Gauge, ModesCombine) {
  Gauge mx{0.0, false, GaugeMode::kMax};
  mx.Set(2.0);
  mx.Set(1.0);
  EXPECT_DOUBLE_EQ(mx.value, 2.0);
  Gauge mn{0.0, false, GaugeMode::kMin};
  mn.Set(2.0);
  mn.Set(1.0);
  EXPECT_DOUBLE_EQ(mn.value, 1.0);
  Gauge sm{0.0, false, GaugeMode::kSum};
  sm.Set(2.0);
  sm.Set(1.0);
  EXPECT_DOUBLE_EQ(sm.value, 3.0);
}

TEST(Gauge, MergeIgnoresUnsetSides) {
  Gauge a{0.0, false, GaugeMode::kMax};
  Gauge b{7.0, true, GaugeMode::kMax};
  a.Merge(b);
  EXPECT_TRUE(a.set);
  EXPECT_DOUBLE_EQ(a.value, 7.0);
  Gauge untouched{0.0, false, GaugeMode::kMax};
  a.Merge(untouched);
  EXPECT_DOUBLE_EQ(a.value, 7.0);
}

/// Builds a registry with all three metric kinds from a small seed.
MetricsRegistry MakeRegistry(std::int64_t seed) {
  MetricsRegistry reg;
  reg.GetCounter("c.alpha").Add(seed);
  reg.GetCounter("c.beta").Add(seed * 3 + 1);
  reg.GetGauge("g.max", GaugeMode::kMax).Set(static_cast<double>(seed % 7));
  reg.GetGauge("g.sum", GaugeMode::kSum).Set(static_cast<double>(seed));
  Histogram& h = reg.GetHistogram("h.lat");
  for (std::int64_t v = 0; v < seed % 50 + 3; ++v) h.Add(v * seed % 1000);
  return reg;
}

TEST(MetricsRegistry, MergeIsAssociative) {
  // (a + b) + c == a + (b + c), byte-for-byte in every export format.
  const MetricsRegistry a = MakeRegistry(11);
  const MetricsRegistry b = MakeRegistry(29);
  const MetricsRegistry c = MakeRegistry(97);

  MetricsRegistry left = a;   // (a+b)+c
  left.Merge(b);
  left.Merge(c);
  MetricsRegistry bc = b;     // a+(b+c)
  bc.Merge(c);
  MetricsRegistry right = a;
  right.Merge(bc);

  EXPECT_EQ(ToJson(left), ToJson(right));
  EXPECT_EQ(ToJsonLines(left), ToJsonLines(right));
  EXPECT_EQ(ToCsv(left), ToCsv(right));
}

TEST(MetricsRegistry, MergeAddsCountersAndBins) {
  MetricsRegistry a = MakeRegistry(5);
  const MetricsRegistry b = MakeRegistry(5);
  a.Merge(b);
  EXPECT_EQ(a.counters().at("c.alpha").value, 10);
  EXPECT_EQ(a.histograms().at("h.lat").count(),
            2 * b.histograms().at("h.lat").count());
  // Disjoint names union in.
  MetricsRegistry other;
  other.GetCounter("c.gamma").Add(2);
  a.Merge(other);
  EXPECT_EQ(a.counters().at("c.gamma").value, 2);
  EXPECT_EQ(a.counters().at("c.alpha").value, 10);
}

TEST(MetricsRegistry, StableReferencesAcrossInterning) {
  MetricsRegistry reg;
  Counter* first = &reg.GetCounter("a");
  for (int i = 0; i < 100; ++i) {
    std::string key = "k";  // built in two steps: GCC 12 -Wrestrict FP
    key += std::to_string(i);
    reg.GetCounter(key).Add();
  }
  EXPECT_EQ(first, &reg.GetCounter("a"));  // node-based map: no rehash moves
  first->Add(3);
  EXPECT_EQ(reg.counters().at("a").value, 3);
}

TEST(Export, FormatsCoverAllKinds) {
  const MetricsRegistry reg = MakeRegistry(13);
  const std::string json = ToJson(reg);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c.alpha\":13"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  const std::string jsonl = ToJsonLines(reg);
  EXPECT_NE(jsonl.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"histogram\""), std::string::npos);
  const std::string csv = ToCsv(reg);
  EXPECT_EQ(csv.rfind("kind,name,field,value\n", 0), 0u);

  // File-level serialisation prepends the build stamp, then carries the
  // raw export byte-for-byte.
  const std::string build_json = ToJson(GetBuildInfo());
  EXPECT_EQ(SerializeForPath(reg, "x.csv"),
            "kind,name,field,value\n"
            "build,git_sha,value," + GetBuildInfo().git_sha + "\n"
            "build,compiler,value," + GetBuildInfo().compiler + "\n"
            "build,build_type,value," + GetBuildInfo().build_type + "\n"
            "build,sanitizer,value," + GetBuildInfo().sanitizer + "\n" +
            csv.substr(std::string("kind,name,field,value\n").size()));
  EXPECT_EQ(SerializeForPath(reg, "x.jsonl"),
            "{\"kind\":\"build\",\"value\":" + build_json + "}\n" + jsonl);
  EXPECT_EQ(SerializeForPath(reg, "x.json"),
            "{\"build\":" + build_json + ',' + json.substr(1));
  EXPECT_EQ(SerializeForPath(reg, "x"), SerializeForPath(reg, "x.json"));
}

TEST(Export, EmptyRegistryIsStable) {
  const MetricsRegistry reg;
  EXPECT_EQ(ToJson(reg), ToJson(MetricsRegistry{}));
  EXPECT_NE(ToJson(reg).find("\"counters\":{}"), std::string::npos);
}


// ---------------------------------------------------------------------
// Determinism: metrics-enabled sweeps serialise to identical bytes for
// any thread count, across all three runners.

std::string SingleSweepJson(int threads) {
  SetParallelThreads(threads);
  SingleRunSpec spec;
  spec.scheme = SchemeKind::kTreeWorm;
  spec.multicast_size = 6;
  spec.topologies = 8;
  spec.samples_per_topology = 2;
  return ToJson(RunSingleMulticast(spec).metrics);
}

TEST(MetricsDeterminism, SingleRunnerThreadCountInvariant) {
  ThreadsGuard guard;
  const std::string serial = SingleSweepJson(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_NE(serial.find("mcast.completed"), std::string::npos);
  EXPECT_EQ(serial, SingleSweepJson(2));
  EXPECT_EQ(serial, SingleSweepJson(8));
}

std::string LoadSweepJson(int threads) {
  SetParallelThreads(threads);
  LoadRunSpec spec;
  spec.scheme = SchemeKind::kNiKBinomial;
  spec.degree = 4;
  spec.effective_load = 0.15;
  spec.topologies = 5;
  spec.warmup = 2'000;
  spec.horizon = 20'000;
  return ToJson(RunLoadSweepPoint(spec).metrics);
}

TEST(MetricsDeterminism, LoadRunnerThreadCountInvariant) {
  ThreadsGuard guard;
  const std::string serial = LoadSweepJson(1);
  EXPECT_NE(serial.find("fabric.flits_sent"), std::string::npos);
  EXPECT_EQ(serial, LoadSweepJson(2));
  EXPECT_EQ(serial, LoadSweepJson(8));
}

std::string DsmSweepJson(int threads) {
  SetParallelThreads(threads);
  SimConfig cfg;
  DsmParams params;
  params.topologies = 3;
  params.horizon = 40'000;
  return ToJson(RunDsmInvalidation(cfg, SchemeKind::kPathWorm, params).metrics);
}

TEST(MetricsDeterminism, DsmRunnerThreadCountInvariant) {
  ThreadsGuard guard;
  const std::string serial = DsmSweepJson(1);
  EXPECT_NE(serial.find("host.cycles"), std::string::npos);
  EXPECT_EQ(serial, DsmSweepJson(8));
}

// Recording never changes what is simulated: a driver handed no
// registry binds to one it owns and must play every scheme, on both
// engines, to exactly the result a caller-supplied registry sees.
TEST(MetricsDeterminism, DriverWithoutRegistrySimulatesIdentically) {
  const auto sys = System::Build({}, 42);
  std::vector<NodeId> dests;
  for (NodeId n = 1; n <= 15; ++n) dests.push_back(n);
  for (EngineKind engine : {EngineKind::kVct, EngineKind::kFlit}) {
    SimConfig cfg;
    cfg.engine = engine;
    cfg.message.num_packets = 2;
    for (SchemeKind kind : {SchemeKind::kUnicastBinomial,
                            SchemeKind::kNiKBinomial, SchemeKind::kTreeWorm,
                            SchemeKind::kPathWorm}) {
      SCOPED_TRACE(std::string(ToString(engine)) + " " + ToString(kind));
      const auto scheme = MakeScheme(kind, cfg.host);
      const McastPlan plan =
          scheme->Plan(*sys, 0, dests, cfg.message, cfg.headers);
      MetricsRegistry reg;
      const MulticastResult with = PlayOnce(*sys, cfg, plan, nullptr, &reg);
      const MulticastResult without = PlayOnce(*sys, cfg, plan);
      EXPECT_EQ(reg.counters().at("mcast.completed").value, 1);
      EXPECT_EQ(with.id, without.id);
      EXPECT_EQ(with.start, without.start);
      EXPECT_EQ(with.completion, without.completion);
      EXPECT_EQ(with.num_dests, without.num_dests);
      EXPECT_EQ(with.deliveries, without.deliveries);
    }
  }
}

TEST(MetricsDeterminism, DriverWithoutRegistryRecordsIntoItsOwn) {
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  Engine engine;
  McastDriver driver(engine, *sys, cfg);
  const auto scheme = MakeScheme(SchemeKind::kTreeWorm, cfg.host);
  driver.Launch(scheme->Plan(*sys, 0, {1, 2, 3}, cfg.message, cfg.headers),
                0, [](const MulticastResult&) {});
  engine.RunToQuiescence();
  const MetricsRegistry& own = driver.metrics();
  EXPECT_EQ(own.counters().at("mcast.launched").value, 1);
  EXPECT_EQ(own.counters().at("mcast.completed").value, 1);
  EXPECT_GT(own.counters().at("fabric.flits_sent").value, 0);
}

// Pins the derived-quantile estimator (Histogram::Quantile and the
// reader-side BinnedQuantile share it) against exact sample sets, so
// the p50/p95/p99 columns in the metrics CSV and the ledger cannot
// drift silently.
TEST(Histogram, QuantilePinsExactSampleSets) {
  // All samples equal: the [min,max] clamp pins every quantile.
  Histogram same;
  for (int i = 0; i < 4; ++i) same.Add(5);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) EXPECT_EQ(same.Quantile(q), 5.0);

  // {1, 2, 3}: bin [1,2) holds one sample, bin [2,4) two; rank
  // interpolation spreads the two-sample bin over [2, 3].
  Histogram h;
  h.Add(1);
  h.Add(2);
  h.Add(3);
  EXPECT_EQ(h.Quantile(0.0), 1.0);
  EXPECT_EQ(h.Quantile(0.5), 2.0);
  EXPECT_NEAR(h.Quantile(0.95), 2.9, 1e-12);
  EXPECT_EQ(h.Quantile(1.0), 3.0);

  // A single sample reads its bin midpoint, clamped to [min, max].
  Histogram one;
  one.Add(10);
  EXPECT_EQ(one.Quantile(0.5), 10.0);

  // The reader-side estimator agrees bin-for-bin with the live one.
  std::vector<BinSlice> slices;
  for (int b = 0; b < Histogram::kBins; ++b)
    if (h.bin(b) > 0)
      slices.push_back(
          {Histogram::BinLower(b), Histogram::BinUpper(b), h.bin(b)});
  for (double q : {0.25, 0.5, 0.75, 0.95})
    EXPECT_EQ(BinnedQuantile(slices, h.min(), h.max(), q), h.Quantile(q));
}

}  // namespace
}  // namespace irmc
