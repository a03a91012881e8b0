// Simulator performance (google-benchmark): event throughput of both
// network engines (VCT and flit-level), topology construction, and plan
// construction. Not a paper figure — this guards the harness's own
// speed so the load sweeps stay tractable.
//
// After the google-benchmark suites, a custom main times an identical
// load sweep point on each engine, reports both in events/sec side by
// side, times the static deadlock analysis throughput, and writes
// BENCH_perfE.json (to IRMC_METRICS_DIR, default "bench-out/") with
// both engine series and the analysis runtime. Metrics are always on;
// what recording costs is gated deterministically by perfbench's
// allocs_per_op (perfbench/README.md), not by a timing here.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/executor.hpp"
#include "core/load_runner.hpp"
#include "core/parallel.hpp"
#include "core/single_runner.hpp"
#include "mcast/scheme.hpp"
#include "metrics/export.hpp"
#include "report/collect.hpp"
#include "report/ledger.hpp"
#include "topology/system.hpp"
#include "verify/deadlock.hpp"

namespace {

using namespace irmc;

void BM_TopologyBuild(benchmark::State& state) {
  TopologySpec spec;
  spec.num_switches = static_cast<int>(state.range(0));
  spec.num_hosts = 4 * spec.num_switches;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto sys = System::Build(spec, seed++);
    benchmark::DoNotOptimize(sys);
  }
}
BENCHMARK(BM_TopologyBuild)->Arg(8)->Arg(16)->Arg(32);

void BM_PlanConstruction(benchmark::State& state) {
  const auto kind = static_cast<SchemeKind>(state.range(0));
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  const auto scheme = MakeScheme(kind, cfg.host);
  std::vector<NodeId> dests;
  for (NodeId n = 1; n <= 15; ++n) dests.push_back(n);
  for (auto _ : state) {
    auto plan = scheme->Plan(*sys, 0, dests, cfg.message, cfg.headers);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanConstruction)->DenseRange(0, 3);

void BM_SingleMulticast(benchmark::State& state) {
  const auto kind = static_cast<SchemeKind>(state.range(0));
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  const auto scheme = MakeScheme(kind, cfg.host);
  std::vector<NodeId> dests;
  for (NodeId n = 1; n <= 15; ++n) dests.push_back(n);
  for (auto _ : state) {
    auto result = PlayOnce(
        *sys, cfg, scheme->Plan(*sys, 0, dests, cfg.message, cfg.headers));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SingleMulticast)->DenseRange(0, 3);

void BM_LoadedEngineEventRate(benchmark::State& state) {
  // Events per second of one network engine under open multicast load.
  // Arg 0 = VCT, arg 1 = flit-level; an "event" is one sim-kernel event
  // (a hop for VCT, a busy cycle for the flit engine), so the two rates
  // quantify the granularity gap, not just implementation speed.
  const auto sys = System::Build({}, 42);
  SimConfig cfg;
  cfg.engine = static_cast<EngineKind>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    Engine engine;
    McastDriver driver(engine, *sys, cfg);
    const auto scheme = MakeScheme(SchemeKind::kTreeWorm, cfg.host);
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
      auto draw = rng.SampleWithoutReplacement(32, 9);
      std::vector<NodeId> dests;
      for (std::size_t j = 1; j < draw.size(); ++j)
        dests.push_back(static_cast<NodeId>(draw[j]));
      driver.Launch(scheme->Plan(*sys, static_cast<NodeId>(draw[0]), dests,
                                 cfg.message, cfg.headers),
                    static_cast<Cycles>(rng.NextBelow(50'000)),
                    [](const MulticastResult&) {});
    }
    engine.RunToQuiescence();
    events += engine.events_executed();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LoadedEngineEventRate)->DenseRange(0, 1);

void BM_LoadSweepEventRate(benchmark::State& state) {
  // Events per wall-clock second of a whole load sweep point when its
  // topology trials run on the parallel executor. Arg(1) is the serial
  // baseline, higher args the parallel speedup — the ratio is the
  // harness-level win the Trial refactor buys.
  const int threads = static_cast<int>(state.range(0));
  SetParallelThreads(threads);
  LoadRunSpec spec;
  spec.scheme = SchemeKind::kTreeWorm;
  spec.degree = 8;
  spec.effective_load = 0.3;
  spec.topologies = 4;
  spec.warmup = 5'000;
  spec.horizon = 60'000;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const LoadRunResult r = RunLoadSweepPoint(spec);
    events += r.events_executed;
    benchmark::DoNotOptimize(r);
  }
  SetParallelThreads(0);  // restore IRMC_THREADS / hardware default
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LoadSweepEventRate)->Arg(1)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------------
// Engine comparison (custom main, after the google-benchmark run).

/// One timed pass over a load sweep point. Returns (events, seconds).
struct TimedSweep {
  std::uint64_t events = 0;
  double seconds = 0.0;
  double EventsPerSec() const {
    return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
  }
};

TimedSweep TimeSweep(EngineKind engine) {
  LoadRunSpec spec;
  spec.cfg.engine = engine;
  spec.scheme = SchemeKind::kTreeWorm;
  spec.degree = 8;
  spec.effective_load = 0.3;
  spec.topologies = 4;
  spec.warmup = 5'000;
  spec.horizon = 60'000;
  const auto t0 = std::chrono::steady_clock::now();
  const LoadRunResult r = RunLoadSweepPoint(spec);
  const auto t1 = std::chrono::steady_clock::now();
  TimedSweep out;
  out.events = r.events_executed;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

/// Wall time of the static multicast deadlock analysis (all four
/// schemes x both routing modes, verify/deadlock.hpp) over a batch of
/// random topologies. The analyzer runs per-topology in CI, so its
/// throughput bounds how many sampled topologies a verification sweep
/// can afford.
struct TimedAnalysis {
  int topologies = 0;
  double seconds = 0.0;
  double PerSec() const {
    return seconds > 0.0 ? static_cast<double>(topologies) / seconds : 0.0;
  }
};

TimedAnalysis TimeDeadlockAnalysis() {
  constexpr int kTopologies = 20;
  const verify::DeadlockSpec dspec;  // flit engine, default buffers
  TimedAnalysis out;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kTopologies; ++i) {
    TopologySpec spec;
    spec.num_switches = 8 << (i % 3);  // 8 / 16 / 32
    const auto sys = System::Build(spec, 1000 + static_cast<std::uint64_t>(i));
    const verify::CheckResult r = verify::CheckMulticastDeadlock(*sys, dspec);
    benchmark::DoNotOptimize(r);
    ++out.topologies;
  }
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return out;
}

/// JSON fragment for one timed series.
std::string SweepJson(const TimedSweep& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"events\":%llu,\"seconds\":%.17g,\"events_per_sec\":%.17g}",
                static_cast<unsigned long long>(s.events), s.seconds,
                s.EventsPerSec());
  return buf;
}

/// Appends a "perf"-kind RunRecord to the run ledger so the diff layer
/// can compare simulator speed across builds. Throughput gauges carry
/// the per_sec suffix (higher-is-better in irmc_report regress); the
/// timing values themselves are machine-dependent, which is exactly
/// what a perf ledger records — cross-machine comparisons should raise
/// --threshold rather than expect byte equality.
void AppendPerfLedgerRecord(const TimedSweep& vct, const TimedSweep& flit,
                            const TimedAnalysis& analysis) {
  const std::string path = report::DefaultLedgerPath();
  if (path.empty()) return;
  report::RunInfo info;
  info.name = "perfE_simspeed";
  info.kind = "perf";
  info.engine = "vct+flit";
  // Name-sorted knobs of the timed sweep point (TimeSweep above).
  info.config =
      "degree=8 horizon=60000 load=0.29999999999999999 reps=3 "
      "scheme=tree-worm topologies=4 warmup=5000";
  info.wall_seconds = vct.seconds + flit.seconds + analysis.seconds;
  MetricsRegistry m;
  m.GetCounter("perf.vct.events").value =
      static_cast<std::int64_t>(vct.events);
  m.GetCounter("perf.flit.events").value =
      static_cast<std::int64_t>(flit.events);
  m.GetGauge("perf.vct.events_per_sec").Set(vct.EventsPerSec());
  m.GetGauge("perf.flit.events_per_sec").Set(flit.EventsPerSec());
  m.GetGauge("perf.deadlock.topologies_per_sec").Set(analysis.PerSec());
  if (!report::AppendRecord(path,
                            report::RunRecordJson(info, report::SeriesData{},
                                                  m, {})))
    std::fprintf(stderr, "cannot append run record to %s\n", path.c_str());
}

/// Times the same load sweep point on both engines side by side (best
/// of kReps each, alternating so thermal/frequency drift hits both),
/// prints the comparison, and writes BENCH_perfE.json with both engine
/// series. Always returns 0.
int RunEngineComparison() {
  constexpr int kReps = 3;
  SetParallelThreads(1);  // serial: wall time == work, no scheduler noise
  TimeSweep(EngineKind::kVct);   // warm caches/allocator
  TimeSweep(EngineKind::kFlit);  // before measuring
  TimedSweep best_vct, best_flit;
  for (int rep = 0; rep < kReps; ++rep) {
    const TimedSweep vct = TimeSweep(EngineKind::kVct);
    const TimedSweep flit = TimeSweep(EngineKind::kFlit);
    if (rep == 0 || vct.seconds < best_vct.seconds) best_vct = vct;
    if (rep == 0 || flit.seconds < best_flit.seconds) best_flit = flit;
  }
  SetParallelThreads(0);  // restore IRMC_THREADS / hardware default

  std::printf("engine speed (same sweep point): vct %.3g events/s in %.3gs, "
              "flit %.3g events/s in %.3gs\n",
              best_vct.EventsPerSec(), best_vct.seconds,
              best_flit.EventsPerSec(), best_flit.seconds);

  const TimedAnalysis analysis = TimeDeadlockAnalysis();
  std::printf("static deadlock analysis: %d topologies in %.3gs "
              "(%.3g topologies/s, 8 scheme/mode combos each)\n",
              analysis.topologies, analysis.seconds, analysis.PerSec());

  const char* env_dir = std::getenv("IRMC_METRICS_DIR");
  const std::string dir = env_dir != nullptr ? env_dir : "bench-out";
  if (!dir.empty()) {
    std::filesystem::create_directories(dir);
    std::string json = "{\"bench\":\"perfE_simspeed\",";
    json += "\"engines\":{\"vct\":" + SweepJson(best_vct) +
            ",\"flit\":" + SweepJson(best_flit) + "},";
    char buf[160];
    std::snprintf(
        buf, sizeof buf,
        "\"deadlock_analysis\":{\"topologies\":%d,\"seconds\":%.17g,"
        "\"topologies_per_sec\":%.17g}}\n",
        analysis.topologies, analysis.seconds, analysis.PerSec());
    json += buf;
    const std::string path = dir + "/BENCH_perfE.json";
    if (!WriteFile(path, json))
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    else
      std::printf("wrote %s\n", path.c_str());
  }
  AppendPerfLedgerRecord(best_vct, best_flit, analysis);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return RunEngineComparison();
}
