// The benchmark driver must measure what the figure binaries run. On
// small specs, with seeds no reference digest uses, it must reproduce
// exactly:
//   * RunLoadSweepPoint: completed, unfinished, mean and p95 latency,
//     and the merged metrics registry (both engines, every scheme);
//   * RunSingleMulticast: mean, min and max latency, and the registry;
//   * irmc_verify --deadlock --faults 1 --verbose: every rendered report
//     (their labels carry the trial seeds) and the closing tally line.
#include <cstdio>
#include <string>

#include "core/load_runner.hpp"
#include "core/single_runner.hpp"
#include "driver.hpp"
#include "metrics/export.hpp"
#include "spans.hpp"
#include "verify/invariants.hpp"

namespace {

using namespace irmc;

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL %s\n", what.c_str());
}

const SchemeKind kSchemes[] = {SchemeKind::kUnicastBinomial,
                               SchemeKind::kNiKBinomial, SchemeKind::kTreeWorm,
                               SchemeKind::kPathWorm};

void CheckLoad(EngineKind engine, SchemeKind scheme, double load) {
  perfbench::LoadPointSpec b;
  b.cfg.topology.num_switches = 16;
  b.cfg.engine = engine;
  b.cfg.seed = 8'675'309;
  b.scheme = scheme;
  b.effective_load = load;
  b.warmup = 3'000;
  b.horizon = 30'000;
  b.replicas = 2;
  perfbench::Recorder rec;
  rec.BeginPass(false);
  const perfbench::LoadPointResult got = perfbench::RunLoadPoint(b, rec);

  LoadRunSpec r;
  r.cfg = b.cfg;
  r.scheme = scheme;
  r.degree = 8;
  r.effective_load = load;
  r.warmup = b.warmup;
  r.horizon = b.horizon;
  r.topologies = b.replicas;
  const LoadRunResult want = RunLoadSweepPoint(r);

  const std::string what = std::string("load ") + ToString(engine) + " " +
                           ToString(scheme) + " load=" + std::to_string(load);
  Check(got.completed == want.completed, what + ": completed");
  Check(got.unfinished == want.unfinished, what + ": unfinished");
  Check(got.mean_latency == want.mean_latency, what + ": mean latency");
  Check(got.p95_latency == want.p95_latency, what + ": p95 latency");
  Check(got.events == want.events_executed, what + ": events");
  Check(ToJson(got.output.metrics) == ToJson(want.metrics),
        what + ": metrics");
  if (load < 0.5) Check(got.completed > 0, what + ": nothing completed");
}

void CheckSingle(int switches, SchemeKind scheme, int size) {
  perfbench::SinglePointSpec b;
  b.cfg.topology.num_switches = switches;
  b.cfg.seed = 5'550'123;
  b.scheme = scheme;
  b.multicast_size = size;
  b.topologies = 3;
  b.samples_per_topology = 3;
  perfbench::Recorder rec;
  rec.BeginPass(false);
  const perfbench::SinglePointResult got = perfbench::RunSinglePoint(b, rec);

  SingleRunSpec r;
  r.cfg = b.cfg;
  r.scheme = scheme;
  r.multicast_size = size;
  r.topologies = b.topologies;
  r.samples_per_topology = b.samples_per_topology;
  const SingleRunResult want = RunSingleMulticast(r);

  const std::string what = std::string("single S=") +
                           std::to_string(switches) + " " + ToString(scheme) +
                           " size=" + std::to_string(size);
  Check(static_cast<int>(got.latency.count()) == want.samples,
        what + ": samples");
  Check(got.latency.mean() == want.mean_latency, what + ": mean");
  Check(got.latency.min() == want.min_latency, what + ": min");
  Check(got.latency.max() == want.max_latency, what + ": max");
  Check(ToJson(got.output.metrics) == ToJson(want.metrics),
        what + ": metrics");
}

/// Everything irmc_verify printed for the given arguments.
std::string RunVerifyTool(const std::string& args) {
  const std::string cmd = std::string(IRMC_VERIFY_BIN) + " " + args;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  pclose(pipe);
  return out;
}

void CheckVerify(int trials, std::uint64_t seed) {
  perfbench::VerifySpec spec;
  spec.trials = trials;
  spec.seed = seed;
  perfbench::Recorder rec;
  rec.BeginPass(false);
  const perfbench::VerifyResult got = perfbench::RunVerify(spec, rec);
  std::string mine;
  for (const verify::VerifyReport& report : got.reports)
    mine += verify::Render(report);
  char line[256];
  std::snprintf(line, sizeof line,
                "irmc_verify: %d topologies verified (%d re-verified after "
                "fault injection): all clean\n",
                got.verified, got.faulted);
  if (got.failed > 0)
    std::snprintf(line, sizeof line,
                  "irmc_verify: %d topologies verified (%d re-verified after "
                  "fault injection): %d FAILED\n",
                  got.verified, got.faulted, got.failed);
  mine += line;
  std::string switches;
  for (int s : perfbench::kVerifySwitches)
    switches += (switches.empty() ? "" : ",") + std::to_string(s);
  const std::string want = RunVerifyTool(
      "--deadlock --faults 1 --verbose --switches " + switches + " --trials " +
      std::to_string(trials) + " --seed " + std::to_string(seed));
  Check(got.verified == trials, "verify: trials run");
  Check(mine == want, "verify reports: driver\n" + mine +
                          "differs from irmc_verify\n" + want);
}

}  // namespace

int main() {
  for (EngineKind engine : {EngineKind::kVct, EngineKind::kFlit})
    for (SchemeKind scheme : kSchemes)
      for (double load : {0.1, 0.6}) CheckLoad(engine, scheme, load);
  for (int switches : {8, 32})
    for (SchemeKind scheme : kSchemes)
      for (int size : {4, 23}) CheckSingle(switches, scheme, size);
  CheckVerify(12, 424'242);
  if (failures == 0) std::printf("driver_fidelity: ok\n");
  return failures == 0 ? 0 : 1;
}
