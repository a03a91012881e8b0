// irmcsim command-line driver.
//
//   irmcsim_cli single  --scheme tree-worm --size 15 [--ratio 1.0]
//                       [--switches 8] [--nodes 32] [--packets 1]
//                       [--topologies 10] [--samples 4] [--seed 1]
//   irmcsim_cli load    --scheme ni-kbinomial --degree 8 --load 0.3
//                       [--horizon 150000] [--topologies 2] ...
//   irmcsim_cli dsm     --scheme path-worm [--sharers 8] ...
//   irmcsim_cli topology [--seed 7] [--dot] [--save FILE] ...
//   irmcsim_cli trace   --scheme tree-worm [--size 8] [--seed 42]
//                       [--out FILE]
//
// single/load/dsm accept `--trace FILE[:CAP]`: each trial records into
// its own (optionally ring-capped) tracer and the merged stream — byte
// identical for any --threads value — is written as JSONL (.jsonl) or
// Chrome trace-event JSON (anything else). `tools/irmc_trace` analyses
// the JSONL form.
//
// Every command prints human-readable results; `topology --dot` emits
// Graphviz on stdout for piping into `dot -Tsvg`.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "common/args.hpp"
#include "common/build_info.hpp"
#include "common/expect.hpp"
#include "mcast/binomial.hpp"
#include "core/executor.hpp"
#include "core/load_runner.hpp"
#include "core/parallel.hpp"
#include "core/single_runner.hpp"
#include "mcast/scheme.hpp"
#include "metrics/export.hpp"
#include "resilience/fault_schedule.hpp"
#include "topology/serialize.hpp"
#include "topology/system.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "workloads/dsm.hpp"

namespace {

using namespace irmc;

std::optional<SchemeKind> ParseScheme(const std::string& name) {
  for (SchemeKind k :
       {SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
        SchemeKind::kTreeWorm, SchemeKind::kPathWorm})
    if (name == ToString(k) || name == ToIdent(k)) return k;
  return std::nullopt;
}

/// "flat" selects the naive separate-addressing baseline (a planner,
/// not a SchemeKind of its own).
std::unique_ptr<MulticastScheme> MakeCliScheme(const std::string& name,
                                               const HostParams& host) {
  if (name == "flat") return std::make_unique<SeparateAddressingScheme>();
  const auto kind = ParseScheme(name);
  if (!kind) return nullptr;
  return MakeScheme(*kind, host);
}

/// --metrics FILE: write the run's merged MetricsRegistry (JSON by
/// default; .jsonl / .csv select those formats). Returns 0, or 1 on I/O
/// error; no-op when the flag is absent.
int MaybeWriteMetrics(const Args& args, const MetricsRegistry& reg) {
  const std::string path = args.GetString("metrics", "");
  if (path.empty()) return 0;
  if (!WriteFile(path, SerializeForPath(reg, path))) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote metrics to %s\n", path.c_str());
  return 0;
}

/// --trace FILE[:CAP]: attach a trace sink to single/load/dsm. CAP (a
/// trailing all-digit suffix after the last ':') bounds each per-trial
/// tracer to a ring of that many events. The merged stream is written
/// on success: .jsonl -> JSONL, anything else -> Chrome trace JSON.
struct TraceSpec {
  std::string path;
  std::size_t cap = 0;
  bool enabled() const { return !path.empty(); }
};

TraceSpec GetTraceSpec(const Args& args) {
  TraceSpec t;
  std::string v = args.GetString("trace", "");
  if (v.empty()) return t;
  const auto colon = v.rfind(':');
  if (colon != std::string::npos && colon + 1 < v.size()) {
    const std::string suffix = v.substr(colon + 1);
    bool digits = true;
    for (char c : suffix) digits = digits && c >= '0' && c <= '9';
    if (digits) {
      t.cap = static_cast<std::size_t>(
          std::strtoull(suffix.c_str(), nullptr, 10));
      v = v.substr(0, colon);
    }
  }
  t.path = v;
  return t;
}

int MaybeWriteTrace(const TraceSpec& spec, const Tracer& tracer) {
  if (!spec.enabled()) return 0;
  if (!WriteFile(spec.path, SerializeTraceForPath(tracer, spec.path))) {
    std::fprintf(stderr, "cannot write %s\n", spec.path.c_str());
    return 1;
  }
  std::printf("wrote trace to %s (%zu events, %llu dropped)\n",
              spec.path.c_str(), tracer.size(),
              static_cast<unsigned long long>(tracer.dropped()));
  return 0;
}

/// Common --switches/--nodes/--ports/--packets/--ratio/--seed handling.
/// Out-of-range values exit 2 naming the flag (Args::Reject) rather than
/// tripping a library precondition later.
SimConfig ConfigFrom(const Args& args) {
  SimConfig cfg;
  TopologySpec& topo = cfg.topology;
  topo.num_switches = args.GetIntAtLeast("switches", topo.num_switches, 1);
  topo.num_hosts = args.GetIntAtLeast("nodes", topo.num_hosts, 1);
  topo.ports_per_switch =
      args.GetIntAtLeast("ports", topo.ports_per_switch, 2);
  // GenerateTopology keeps one port per switch for the spanning tree.
  const long max_hosts =
      static_cast<long>(topo.num_switches) * (topo.ports_per_switch - 1);
  if (topo.num_hosts > max_hosts)
    Args::Reject("nodes", std::to_string(topo.num_hosts),
                 "at most switches x (ports - 1) = " +
                     std::to_string(max_hosts));
  cfg.message.num_packets =
      args.GetIntAtLeast("packets", cfg.message.num_packets, 1);
  cfg.message.packet_flits =
      args.GetIntAtLeast("packet-flits", cfg.message.packet_flits, 1);
  const double ratio = args.GetDouble("ratio", cfg.host.R());
  if (ratio <= 0.0)
    Args::Reject("ratio", args.GetString("ratio", ""), "number > 0");
  cfg.host.SetRatio(ratio);
  // --engine vct|flit selects the network engine; --buffer-flits sizes
  // the flit engine's per-port input buffers (see docs/engines.md).
  const std::string engine_name =
      args.GetChoice("engine", ToString(cfg.engine), {"vct", "flit"});
  IRMC_ENSURE(EngineKindFromString(engine_name, &cfg.engine));
  cfg.net.buffer_flits =
      args.GetIntAtLeast("buffer-flits", cfg.net.buffer_flits, 1);
  cfg.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  // Runtime resilience (docs/resilience.md): an explicit fault schedule
  // and/or random faults with a mean time between failures. Either one
  // switches the NI retransmit layer and the reconfiguration manager on.
  const std::string faults = args.GetString("fault-schedule", "");
  if (!faults.empty())
    IRMC_ENSURE(ParseFaultSchedule(faults, &cfg.resilience.schedule) &&
                "bad --fault-schedule (want t:sw:port[,t:sw:port...])");
  cfg.resilience.mtbf = args.GetDouble("mtbf", cfg.resilience.mtbf);
  if (cfg.resilience.mtbf < 0.0)
    Args::Reject("mtbf", args.GetString("mtbf", ""), "number >= 0");
  cfg.resilience.reconfig_delay = args.GetIntAtLeast(
      "reconfig-delay", static_cast<int>(cfg.resilience.reconfig_delay), 0);
  cfg.resilience.verify_reconfig = args.GetFlag("verify-reconfig");
  cfg.resilience.enabled =
      !cfg.resilience.schedule.empty() || cfg.resilience.mtbf > 0.0;
  // --threads N overrides IRMC_THREADS for the trial executor (1 = serial).
  const int threads = args.GetIntAtLeast("threads", 0, 0);
  if (threads > 0) SetParallelThreads(threads);
  return cfg;
}

/// A per-multicast destination count (--size, --degree, --sharers):
/// 1 .. nodes - 1, since the source is never its own destination.
int GetDestCount(const Args& args, const std::string& key, int fallback,
                 const SimConfig& cfg) {
  const int v = args.GetIntAtLeast(key, fallback, 1);
  if (v >= cfg.topology.num_hosts)
    Args::Reject(key, std::to_string(v),
                 "at most nodes - 1 = " +
                     std::to_string(cfg.topology.num_hosts - 1));
  return v;
}

int Usage() {
  std::fprintf(stderr,
               "usage: irmcsim_cli <single|load|dsm|topology|trace> "
               "[options]\n"
               "schemes: uni-binomial ni-kbinomial tree-worm path-worm flat\n"
               "common:  --switches N --nodes N --ports N --packets N\n"
               "         --packet-flits N --ratio R --seed S\n"
               "         --engine vct|flit  (network engine; flit = true "
               "wormhole, finite buffers)\n"
               "         --buffer-flits N  (flit engine per-port input "
               "buffer)\n"
               "         --threads N  (parallel trials; default "
               "IRMC_THREADS or all cores)\n"
               "         --fault-schedule t:sw:port[,...]  (kill links "
               "mid-run; NI retransmit\n"
               "                      + Autonet reconfig recover them)\n"
               "         --mtbf CYCLES  (random survivable link faults, "
               "exponential gaps)\n"
               "         --reconfig-delay CYCLES  --verify-reconfig\n"
               "         --metrics FILE  (single/load/dsm: write merged "
               "metrics; .json/.jsonl/.csv)\n"
               "         --trace FILE[:CAP]  (single/load/dsm: write merged "
               "event trace;\n"
               "                      .jsonl, else Chrome trace JSON; CAP "
               "caps each trial's ring)\n"
               "load:    --pattern uniform|clustered|hotspot\n");
  return 2;
}

int CmdSingle(const Args& args) {
  const auto scheme = ParseScheme(args.GetString("scheme", "tree-worm"));
  if (!scheme) return Usage();
  SingleRunSpec spec;
  spec.cfg = ConfigFrom(args);
  spec.scheme = *scheme;
  spec.multicast_size = GetDestCount(args, "size", 15, spec.cfg);
  spec.topologies = args.GetIntAtLeast("topologies", 10, 1);
  spec.samples_per_topology = args.GetIntAtLeast("samples", 4, 1);
  const TraceSpec tspec = GetTraceSpec(args);
  Tracer tracer;
  if (tspec.enabled()) {
    spec.tracer = &tracer;
    spec.trace_cap = tspec.cap;
  }
  const SingleRunResult r = RunSingleMulticast(spec);
  std::printf("%s %d-way: mean %.1f cycles (%.2f us), min %.0f, max %.0f "
              "over %d samples\n",
              ToString(*scheme), spec.multicast_size, r.mean_latency,
              r.mean_latency * spec.cfg.cycle_ns / 1000.0, r.min_latency,
              r.max_latency, r.samples);
  if (const int rc = MaybeWriteTrace(tspec, tracer)) return rc;
  return MaybeWriteMetrics(args, r.metrics);
}

int CmdLoad(const Args& args) {
  const auto scheme = ParseScheme(args.GetString("scheme", "tree-worm"));
  if (!scheme) return Usage();
  LoadRunSpec spec;
  spec.cfg = ConfigFrom(args);
  spec.scheme = *scheme;
  spec.degree = GetDestCount(args, "degree", 8, spec.cfg);
  spec.effective_load = args.GetDouble("load", 0.2);
  if (spec.effective_load <= 0.0)
    Args::Reject("load", args.GetString("load", ""), "number > 0");
  spec.horizon = args.GetIntAtLeast("horizon", 150'000, 1);
  spec.warmup = spec.horizon / 10;
  spec.topologies = args.GetIntAtLeast("topologies", 2, 1);
  const std::string pattern = args.GetChoice(
      "pattern", "uniform", {"uniform", "clustered", "hotspot"});
  if (pattern == "clustered")
    spec.pattern = DestPattern::kClustered;
  else if (pattern == "hotspot")
    spec.pattern = DestPattern::kHotspot;
  const TraceSpec tspec = GetTraceSpec(args);
  Tracer tracer;
  if (tspec.enabled()) {
    spec.tracer = &tracer;
    spec.trace_cap = tspec.cap;
  }
  const LoadRunResult r = RunLoadSweepPoint(spec);
  std::printf("%s %d-way at load %.2f: mean %.1f / p50 %.1f / p95 %.1f "
              "cycles, %ld completed, %ld unfinished%s\n",
              ToString(*scheme), spec.degree, spec.effective_load,
              r.mean_latency, r.p50_latency, r.p95_latency, r.completed,
              r.unfinished, r.saturated ? "  [SATURATED]" : "");
  std::printf("  achieved throughput %.3f flits/cycle/host, hottest link "
              "%.0f%% busy\n",
              r.achieved_throughput, 100.0 * r.max_link_utilization);
  if (const int rc = MaybeWriteTrace(tspec, tracer)) return rc;
  return MaybeWriteMetrics(args, r.metrics);
}

int CmdDsm(const Args& args) {
  const auto scheme = ParseScheme(args.GetString("scheme", "tree-worm"));
  if (!scheme) return Usage();
  SimConfig cfg = ConfigFrom(args);
  DsmParams params;
  params.sharers_per_line = GetDestCount(args, "sharers", 8, cfg);
  params.write_interarrival = args.GetDouble("interarrival", 50'000.0);
  params.topologies = args.GetIntAtLeast("topologies", 3, 1);
  const TraceSpec tspec = GetTraceSpec(args);
  Tracer tracer;
  if (tspec.enabled()) {
    params.tracer = &tracer;
    params.trace_cap = tspec.cap;
  }
  const DsmResult r = RunDsmInvalidation(cfg, *scheme, params);
  std::printf("%s invalidations, %d sharers/line: mean write stall %.1f "
              "cycles, p95 %.1f, %ld/%ld writes completed\n",
              ToString(*scheme), params.sharers_per_line,
              r.mean_write_latency, r.p95_write_latency, r.writes_completed,
              r.writes_started);
  if (const int rc = MaybeWriteTrace(tspec, tracer)) return rc;
  return MaybeWriteMetrics(args, r.metrics);
}

int CmdTopology(const Args& args) {
  const SimConfig cfg = ConfigFrom(args);
  const bool dot = args.GetFlag("dot");
  const std::string save = args.GetString("save", "");
  const auto sys = System::Build(cfg.topology, cfg.seed);
  if (dot) {
    std::fputs(ToDot(*sys).c_str(), stdout);
  } else {
    std::printf("%d switches / %d nodes / %d links, BFS depth %d, root %d\n",
                sys->num_switches(), sys->num_nodes(), sys->graph.NumLinks(),
                sys->tree.depth(), sys->tree.root());
  }
  if (!save.empty()) {
    std::ofstream out(save);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", save.c_str());
      return 1;
    }
    out << ToText(sys->graph);
    std::printf("saved topology to %s\n", save.c_str());
  }
  return 0;
}

int CmdTrace(const Args& args) {
  SimConfig cfg = ConfigFrom(args);
  const auto scheme =
      MakeCliScheme(args.GetString("scheme", "tree-worm"), cfg.host);
  if (!scheme) return Usage();
  const int size = GetDestCount(args, "size", 8, cfg);
  const auto sys = System::Build(cfg.topology, cfg.seed);

  Tracer tracer;
  Engine engine;
  McastDriver driver(engine, *sys, cfg, &tracer);
  Rng rng(cfg.seed);
  auto draw = rng.SampleWithoutReplacement(sys->num_nodes(), size + 1);
  std::vector<NodeId> dests;
  for (std::size_t i = 1; i < draw.size(); ++i)
    dests.push_back(static_cast<NodeId>(draw[i]));
  const auto id = driver.Launch(
      scheme->Plan(*sys, static_cast<NodeId>(draw[0]), dests, cfg.message,
                   cfg.headers),
      0, [](const MulticastResult& r) {
        std::printf("# completed at %lld cycles\n",
                    static_cast<long long>(r.completion));
      });
  engine.RunToQuiescence();
  const LatencyBreakdown b = AnalyzeMulticast(tracer, id);
  std::printf("# breakdown: source software %lld + network %lld + "
              "destination software %lld = %lld cycles\n",
              static_cast<long long>(b.SourceSoftware()),
              static_cast<long long>(b.Network()),
              static_cast<long long>(b.DestinationSoftware()),
              static_cast<long long>(b.Total()));
  const std::string out_path = args.GetString("out", "");
  if (out_path.empty()) {
    tracer.Dump(stdout);
    return 0;
  }
  if (!WriteFile(out_path, SerializeTraceForPath(tracer, out_path))) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote trace to %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  if (args.VersionRequested()) {
    std::printf("%s\n%s\n", VersionLine("irmcsim_cli").c_str(),
                ToJson(GetBuildInfo()).c_str());
    return 0;
  }
  int rc;
  if (args.command() == "single")
    rc = CmdSingle(args);
  else if (args.command() == "load")
    rc = CmdLoad(args);
  else if (args.command() == "dsm")
    rc = CmdDsm(args);
  else if (args.command() == "topology")
    rc = CmdTopology(args);
  else if (args.command() == "trace")
    rc = CmdTrace(args);
  else
    return Usage();
  if (rc == 0) {
    for (const std::string& key : args.UnconsumedKeys()) {
      std::fprintf(stderr, "unknown option: --%s\n", key.c_str());
      rc = 2;
    }
  }
  return rc;
}
