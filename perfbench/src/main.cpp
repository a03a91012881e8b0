// irmcbench: runs one benchmark workload for a wall-clock budget and
// prints one JSON object describing every pass (see perfbench/README.md).
//
//   irmcbench --workload load_vct|load_flit|single_sweep|verify_sweep
//             --seed S --seconds T [--trace 0|1] [--passes N]
//             [--spans FILE]
//
// `--seed` is the topology/traffic seed the workload's inputs derive
// from. One untimed warm-up pass runs first; then passes repeat for as
// long as another pass, at the length of the longest so far, still ends
// within `--seconds`; `--passes N` instead runs exactly N passes
// with no warm-up (for recording references). With --trace 1 passes
// alternate untraced/traced, so one run yields both the untraced cost
// and the traced per-layer breakdown; the spans of the first traced
// pass are written to --spans at exit.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "common/args.hpp"
#include "common/json.hpp"
#include "driver.hpp"
#include "host_probe.hpp"
#include "spans.hpp"
#include "topology/system_builder.hpp"

namespace {

using namespace irmc;
using perfbench::Layer;

// Pass sizes. A pass must be long enough that the per-op averages of
// different seeds agree within the end-to-end bounds, and short enough
// that several passes fit in one run for a median.
constexpr int kLoadVctReplicas = 2;
constexpr int kLoadFlitReplicas = 1;
constexpr int kSingleTopologies = 20;
constexpr int kVerifyTrials = 200;

const std::vector<SchemeKind> kSchemes{
    SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
    SchemeKind::kTreeWorm, SchemeKind::kPathWorm};

// Modelled-component counters read from each point's registry.
const std::vector<std::string> kModelCounters{
    "fabric.blocked_cycles", "flit.blocked_cycles", "flit.cycles_run",
    "host.cycles",           "ni.cycles",           "io.dma_cycles",
    "mcast.worms"};

struct PointOut {
  std::string name;
  long ops = 0;
  long failed = 0;
  std::uint64_t digest = 0;  ///< set by FinishDigests
};

struct PassOut {
  PassOut() {
    // Every counter is reported, as 0 where a workload never records it.
    for (const std::string& name : kModelCounters) model[name] = 0.0;
    model["sim.end_time"] = 0.0;
  }

  std::vector<PointOut> points;
  std::uint64_t events = 0;
  std::map<std::string, double> model;  ///< summed over points
  // The simulated output, kept until the pass's clocks are read: one
  // entry per point of a simulation workload, or the verify sweep.
  std::vector<perfbench::PointOutput> outputs;
  perfbench::VerifyResult verify;

  void FinishDigests() {
    for (std::size_t i = 0; i < points.size(); ++i)
      points[i].digest =
          outputs.empty() ? verify.GroupDigest(i) : outputs[i].Finish();
  }

  void AddModel(const MetricsRegistry& reg) {
    for (const std::string& name : kModelCounters) {
      const auto it = reg.counters().find(name);
      model[name] += it == reg.counters().end()
                         ? 0.0
                         : static_cast<double>(it->second.value);
    }
    const auto g = reg.gauges().find("sim.end_time");
    model["sim.end_time"] += g == reg.gauges().end() ? 0.0 : g->second.value;
  }
};

std::string Hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

PassOut RunLoadWorkload(EngineKind engine, int replicas, std::uint64_t seed,
                        perfbench::Recorder& rec, perfbench::HostProbe& probe) {
  PassOut pass;
  for (double load : {0.05, 0.15, 0.3, 0.6}) {
    for (SchemeKind scheme : kSchemes) {
      probe.MaybeSample();
      perfbench::Scope point(rec, Layer::kPoint);
      perfbench::LoadPointSpec spec;
      spec.cfg.topology.num_switches = 32;
      spec.cfg.engine = engine;
      spec.cfg.seed = seed;
      spec.scheme = scheme;
      spec.effective_load = load;
      spec.warmup = 20'000;
      spec.horizon = 150'000;
      spec.replicas = replicas;
      perfbench::LoadPointResult r = perfbench::RunLoadPoint(spec, rec);
      char name[64];
      std::snprintf(name, sizeof name, "load=%g/%s", load, ToString(scheme));
      pass.points.push_back(PointOut{name, r.completed, 0});
      pass.events += r.events;
      pass.AddModel(r.output.metrics);
      pass.outputs.push_back(std::move(r.output));
    }
  }
  return pass;
}

PassOut RunSingleWorkload(std::uint64_t seed, perfbench::Recorder& rec,
                          perfbench::HostProbe& probe) {
  PassOut pass;
  for (int switches : {8, 16, 32}) {
    for (int size : {2, 4, 8, 15, 23, 31}) {
      for (SchemeKind scheme : kSchemes) {
        probe.MaybeSample();
        perfbench::Scope point(rec, Layer::kPoint);
        perfbench::SinglePointSpec spec;
        spec.cfg.topology.num_switches = switches;
        spec.cfg.seed = seed;
        spec.scheme = scheme;
        spec.multicast_size = size;
        spec.topologies = kSingleTopologies;
        spec.samples_per_topology = 4;
        perfbench::SinglePointResult r = perfbench::RunSinglePoint(spec, rec);
        char name[64];
        std::snprintf(name, sizeof name, "S=%d/size=%d/%s", switches, size,
                      ToString(scheme));
        pass.points.push_back(
            PointOut{name, static_cast<long>(r.latency.count()), 0});
        pass.events += r.events;
        pass.AddModel(r.output.metrics);
        pass.outputs.push_back(std::move(r.output));
      }
    }
  }
  return pass;
}

PassOut RunVerifyWorkload(std::uint64_t seed, perfbench::Recorder& rec,
                          perfbench::HostProbe& probe) {
  probe.MaybeSample();
  perfbench::Scope point(rec, Layer::kPoint);
  perfbench::VerifySpec spec;
  spec.trials = kVerifyTrials;
  spec.seed = seed;
  PassOut pass;
  pass.verify = perfbench::RunVerify(spec, rec);
  for (std::size_t g = 0; g < std::size(perfbench::kVerifySwitches); ++g)
    pass.points.push_back(
        PointOut{"S=" + std::to_string(perfbench::kVerifySwitches[g]),
                 pass.verify.Systems(g), pass.verify.Failures(g)});
  return pass;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// VmHWM of this process. Unlike getrusage's ru_maxrss it starts afresh
/// at exec, so it does not include the RSS of the launching process.
long PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  return -1;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of one traced pass, named as in BENCHMARK.json.
std::map<std::string, double> LayerMetrics(const perfbench::PassSummary& s,
                                           const PassOut& pass) {
  std::map<std::string, double> m;
  const auto& run = s.Of(Layer::kRun);
  const double events = static_cast<double>(pass.events);
  m["sim.run_s"] = run.self_s;
  m["sim.events"] = events;
  m["sim.ns_per_event"] = Ratio(run.self_s * 1e9, events);
  m["sim.allocs_per_event"] =
      Ratio(static_cast<double>(run.self_allocs), events);
  const auto cycles = pass.model.find("flit.cycles_run");
  m["network.ns_per_flit_cycle"] =
      Ratio(run.self_s * 1e9,
            cycles == pass.model.end() ? 0.0 : cycles->second);
  for (SchemeKind k : kSchemes) {
    const auto& plan = s.Of(Layer::kPlan, static_cast<std::uint8_t>(k));
    const std::string p = std::string("mcast.") + ToString(k);
    m[p + ".plan_s"] = plan.self_s;
    m[p + ".plan_p50_us"] = Percentile(plan.durations_us, 0.50);
    m[p + ".plan_p99_us"] = Percentile(plan.durations_us, 0.99);
    m[p + ".allocs_per_plan"] = Ratio(static_cast<double>(plan.self_allocs),
                                      static_cast<double>(plan.calls));
  }
  const auto per_call = [](const perfbench::LayerTotals& t) {
    return Ratio(static_cast<double>(t.self_allocs),
                 static_cast<double>(t.calls));
  };
  m["core.driver_new_s"] = s.Of(Layer::kDriverNew).self_s;
  m["core.driver_new_allocs"] = per_call(s.Of(Layer::kDriverNew));
  m["core.launch_s"] = s.Of(Layer::kLaunch).self_s;
  m["core.launch_allocs"] = per_call(s.Of(Layer::kLaunch));
  const auto& build = s.Of(Layer::kTopoBuild);
  m["topology.build_s"] = build.self_s;
  m["topology.build_calls"] = static_cast<double>(build.calls);
  m["topology.fault_rebuild_s"] = s.Of(Layer::kFaultRebuild).self_s;
  m["topology.allocs_per_build"] = per_call(build);
  const auto& inv = s.Of(Layer::kInvariants);
  const auto& dl = s.Of(Layer::kDeadlock);
  m["verify.invariants_s"] = inv.self_s;
  m["verify.deadlock_s"] = dl.self_s;
  m["verify.allocs_per_system"] =
      Ratio(static_cast<double>(inv.self_allocs + dl.self_allocs),
            static_cast<double>(inv.calls));
  m["trace.uncovered_frac"] = Ratio(s.uncovered_s, s.pass_s);
  m["trace.spans"] = static_cast<double>(s.spans);
  return m;
}

void AppendObject(const std::map<std::string, double>& m, std::string* out) {
  *out += '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) *out += ',';
    first = false;
    *out += json::Str(k) + ':' + json::Num(v);
  }
  *out += '}';
}

void AppendArray(const std::vector<double>& v, std::string* out) {
  *out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) *out += ',';
    *out += json::Num(v[i]);
  }
  *out += ']';
}

int Usage() {
  std::fprintf(stderr,
               "usage: irmcbench --workload load_vct|load_flit|single_sweep|"
               "verify_sweep --seed S --seconds T [--trace 0|1] [--passes N] "
               "[--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  const std::string workload = args.GetString("workload", "");
  const long seed = args.GetInt("seed", -1);
  const double seconds = args.GetDouble("seconds", 10.0);
  const long trace = args.GetInt("trace", 0);
  const long fixed_passes = args.GetInt("passes", 0);
  const std::string spans_path = args.GetString("spans", "");
  if (!args.UnconsumedKeys().empty() || !args.command().empty() || seed < 0 ||
      seconds <= 0.0 || (trace != 0 && trace != 1) || fixed_passes < 0)
    return Usage();

  const auto input_seed = static_cast<std::uint64_t>(seed);
  perfbench::HostProbe probe;
  std::function<PassOut(perfbench::Recorder&)> run_pass;
  if (workload == "load_vct")
    run_pass = [&](perfbench::Recorder& rec) {
      return RunLoadWorkload(EngineKind::kVct, kLoadVctReplicas, input_seed,
                             rec, probe);
    };
  else if (workload == "load_flit")
    run_pass = [&](perfbench::Recorder& rec) {
      return RunLoadWorkload(EngineKind::kFlit, kLoadFlitReplicas, input_seed,
                             rec, probe);
    };
  else if (workload == "single_sweep")
    run_pass = [&](perfbench::Recorder& rec) {
      return RunSingleWorkload(input_seed, rec, probe);
    };
  else if (workload == "verify_sweep")
    run_pass = [&](perfbench::Recorder& rec) {
      return RunVerifyWorkload(input_seed, rec, probe);
    };
  else
    return Usage();

  perfbench::Recorder rec;
  std::string spans_tsv;
  std::string passes_json;
  int traced_passes = 0;

  // One pass = cold SystemBuilder cache (users pay cold builds once per
  // process), then the whole sweep. Pass -1 is the untimed warm-up.
  const auto one_pass = [&](int index, bool traced) {
    SystemBuilder& builder = SystemBuilder::Global();
    builder.Clear();
    const SystemBuilder::Stats cache0 = builder.stats();
    rec.BeginPass(traced);
    // Traced passes are not probed, so their spans hold only the
    // workload.
    probe.BeginPass(!traced);
    const perfbench::AllocCount a0 = perfbench::AllocsNow();
    const double cpu0 = perfbench::CpuSeconds();
    const std::int64_t wall0 = perfbench::NowNs();
    PassOut pass;
    {
      perfbench::Scope scope(rec, Layer::kPass);
      pass = run_pass(rec);
    }
    // The probe's own time and allocations are not the workload's.
    const double wall =
        static_cast<double>(perfbench::NowNs() - wall0) * 1e-9 - probe.wall_s();
    const double cpu = perfbench::CpuSeconds() - cpu0 - probe.cpu_s();
    const perfbench::AllocCount a1 = perfbench::AllocsNow();
    const std::uint64_t allocs = a1.calls - a0.calls - probe.allocs();
    const SystemBuilder::Stats cache1 = builder.stats();
    if (index < 0) return;
    // Rendering the output for its digests is the benchmark's own work,
    // so it runs after the clocks and the allocation counter are read.
    pass.FinishDigests();

    long ops = 0;
    for (const PointOut& p : pass.points) ops += p.ops;
    std::string j = "{\"traced\":" + std::string(traced ? "true" : "false");
    j += ",\"wall_s\":" + json::Num(wall);
    j += ",\"cpu_s\":" + json::Num(cpu);
    j += ",\"setup_s\":" + json::Num(rec.setup_s());
    j += ",\"ops\":" + json::Num(static_cast<std::int64_t>(ops));
    j += ",\"allocs\":" + json::Num(static_cast<std::int64_t>(allocs));
    j += ",\"cache_hits\":" +
         json::Num(static_cast<std::int64_t>(cache1.hits - cache0.hits));
    j += ",\"cache_misses\":" +
         json::Num(static_cast<std::int64_t>(cache1.misses - cache0.misses));
    j += ",\"probe_wall_s\":";
    AppendArray(probe.sample_wall_s(), &j);
    j += ",\"probe_cpu_s\":";
    AppendArray(probe.sample_cpu_s(), &j);
    j += ",\"events\":" + json::Num(static_cast<std::int64_t>(pass.events));
    j += ",\"model\":";
    AppendObject(pass.model, &j);
    j += ",\"points\":[";
    for (std::size_t i = 0; i < pass.points.size(); ++i) {
      const PointOut& p = pass.points[i];
      if (i > 0) j += ',';
      j += '[' + json::Str(p.name) + ',' +
           json::Num(static_cast<std::int64_t>(p.ops)) + ',' +
           json::Num(static_cast<std::int64_t>(p.failed)) + ',' +
           json::Str(Hex(p.digest)) + ']';
    }
    j += ']';
    if (traced) {
      const perfbench::PassSummary sum =
          perfbench::Summarize(rec.spans(), static_cast<int>(kSchemes.size()));
      j += ",\"layers\":";
      AppendObject(LayerMetrics(sum, pass), &j);
      // The first traced pass is written out; later ones only add to
      // the medians.
      if (!spans_path.empty() && traced_passes == 0)
        rec.AppendTsv(traced_passes, &spans_tsv);
      ++traced_passes;
    }
    j += '}';
    if (!passes_json.empty()) passes_json += ',';
    passes_json += j;
  };

  // Warm-up (in trace mode it also sizes the span log); recording
  // references with --passes skips it, since nothing is timed then.
  if (fixed_passes == 0) one_pass(-1, trace == 1);
  const std::int64_t start = perfbench::NowNs();
  int passes = 0;
  double longest_s = 0.0;
  for (;;) {
    const bool traced = trace == 1 && passes % 2 == 1;
    const std::int64_t pass_start = perfbench::NowNs();
    one_pass(passes, traced);
    ++passes;
    const std::int64_t now = perfbench::NowNs();
    longest_s =
        std::max(longest_s, static_cast<double>(now - pass_start) * 1e-9);
    const double elapsed = static_cast<double>(now - start) * 1e-9;
    if (fixed_passes > 0
            ? passes >= fixed_passes
            : elapsed + longest_s > seconds && passes >= (trace ? 2 : 1))
      break;
  }

  if (!spans_path.empty()) {
    std::ofstream out(spans_path, std::ios::binary | std::ios::trunc);
    out << "pass\tindex\tparent\tlayer\ttag\tstart_ns\tend_ns\tallocs\n"
        << spans_tsv;
    if (!out) {
      std::fprintf(stderr, "irmcbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }

  std::printf("{\"workload\":%s,\"seed\":%ld,\"peak_rss_kb\":%ld,"
              "\"passes\":[%s]}\n",
              json::Str(workload).c_str(), seed, PeakRssKb(),
              passes_json.c_str());
  return 0;
}
