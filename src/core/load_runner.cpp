#include "core/load_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/parallel.hpp"
#include "core/trial.hpp"
#include "core/trial_setup.hpp"
#include "mcast/scheme.hpp"
#include "topology/system.hpp"

namespace irmc {
namespace {

/// One topology's worth of open-loop traffic.
struct TopologyRun {
  const LoadRunSpec& spec;
  const System& sys;
  Engine engine;
  McastDriver driver;
  std::unique_ptr<MulticastScheme> scheme;
  std::vector<Rng> host_rng;
  double interarrival_mean;
  long launched_measured = 0;
  long completed_measured = 0;
  SampleSet latencies;

  TopologyRun(const LoadRunSpec& s, const System& system, std::uint64_t seed,
              Tracer* tracer, MetricsRegistry& metrics)
      : spec(s),
        sys(system),
        driver(engine, system, s.cfg, tracer, &metrics),
        scheme(MakeScheme(s.scheme, s.cfg.host)) {
    const double flits = static_cast<double>(s.cfg.message.TotalFlits());
    interarrival_mean =
        static_cast<double>(s.degree) * flits / s.effective_load;
    Rng seeder(seed);
    for (NodeId n = 0; n < sys.num_nodes(); ++n) {
      host_rng.push_back(seeder.Fork());
      ScheduleArrival(n);
    }
  }

  void ScheduleArrival(NodeId n) {
    Rng& rng = host_rng[static_cast<std::size_t>(n)];
    const double dt = rng.NextExponential(interarrival_mean);
    const Cycles delay = std::max<Cycles>(1, static_cast<Cycles>(dt));
    engine.ScheduleAfter(delay, [this, n]() {
      if (engine.Now() >= spec.horizon) return;  // generation stops
      LaunchOne(n);
      ScheduleArrival(n);
    });
  }

  /// Degree distinct destinations excluding src, per spec.pattern.
  std::vector<NodeId> DrawDests(NodeId src, Rng& rng) {
    switch (spec.pattern) {
      case DestPattern::kUniform: {
        auto draw =
            rng.SampleWithoutReplacement(sys.num_nodes() - 1, spec.degree);
        std::vector<NodeId> dests;
        for (auto d : draw)
          dests.push_back(static_cast<NodeId>(d >= src ? d + 1 : d));
        return dests;
      }
      case DestPattern::kClustered: {
        // Nodes of the switches nearest a random anchor, in distance
        // order, until the degree is met.
        const auto anchor = static_cast<SwitchId>(
            rng.NextBelow(static_cast<std::uint64_t>(sys.num_switches())));
        std::vector<SwitchId> order;
        for (SwitchId s = 0; s < sys.num_switches(); ++s) order.push_back(s);
        std::sort(order.begin(), order.end(), [&](SwitchId a, SwitchId b) {
          const int da = sys.routing.Distance(anchor, a);
          const int db = sys.routing.Distance(anchor, b);
          if (da != db) return da < db;
          return a < b;
        });
        std::vector<NodeId> dests;
        for (SwitchId s : order) {
          for (NodeId n : sys.graph.HostsAt(s)) {
            if (n == src) continue;
            dests.push_back(n);
            if (static_cast<int>(dests.size()) == spec.degree) return dests;
          }
        }
        return dests;  // degree > reachable nodes: return what exists
      }
      case DestPattern::kHotspot: {
        // A fixed popular subset (the lowest-ID nodes) receives
        // `hotspot_fraction` of the traffic; the rest is uniform.
        if (rng.NextBool(spec.hotspot_fraction)) {
          std::vector<NodeId> dests;
          for (NodeId n = 0; static_cast<int>(dests.size()) < spec.degree &&
                             n < sys.num_nodes();
               ++n)
            if (n != src) dests.push_back(n);
          return dests;
        }
        auto draw =
            rng.SampleWithoutReplacement(sys.num_nodes() - 1, spec.degree);
        std::vector<NodeId> dests;
        for (auto d : draw)
          dests.push_back(static_cast<NodeId>(d >= src ? d + 1 : d));
        return dests;
      }
    }
    IRMC_ENSURE(false && "unknown pattern");
    return {};
  }

  void LaunchOne(NodeId src) {
    Rng& rng = host_rng[static_cast<std::size_t>(src)];
    std::vector<NodeId> dests = DrawDests(src, rng);
    IRMC_ENSURE(!dests.empty());
    McastPlan plan = scheme->Plan(sys, src, dests, spec.cfg.message,
                                  spec.cfg.headers);
    const Cycles start = engine.Now();
    const bool measured = start >= spec.warmup;
    if (measured) ++launched_measured;
    driver.Launch(std::move(plan), start,
                  [this, measured](const MulticastResult& r) {
                    if (!measured) return;
                    ++completed_measured;
                    latencies.Add(static_cast<double>(r.Latency()));
                  });
  }

  void Run() {
    // Generation stops at the horizon; allow an equal-length drain so
    // in-flight multicasts can finish unless the system is saturated.
    engine.RunUntil(spec.horizon * 2);
  }
};

}  // namespace

LoadRunResult RunLoadSweepPoint(const LoadRunSpec& spec) {
  IRMC_EXPECT(spec.effective_load > 0.0);
  IRMC_EXPECT(spec.degree >= 1 &&
              spec.degree < spec.cfg.topology.num_hosts);

  // Trial = one open-loop topology replica; it owns the Engine, System,
  // McastDriver, per-host Rng streams, MetricsRegistry, and Tracer for
  // its replica.
  const auto body = [&spec](const TrialContext& ctx) {
    TrialOutcome out;
    const TrialSetup setup =
        PrepareTrial(out, ctx, spec.cfg.topology, spec.tracer, spec.trace_cap);
    Tracer* trace = setup.tracer;
    const auto& sys = setup.sys;
    TopologyRun run(spec, *sys,
                    spec.cfg.seed * 104729 +
                        static_cast<std::uint64_t>(ctx.trial_index),
                    trace, out.metrics);
    run.Run();
    run.engine.CollectMetrics(out.metrics);
    run.driver.network().CollectMetrics(run.engine.Now());
    out.completed = run.completed_measured;
    out.launched = run.launched_measured;
    out.util_sum = run.driver.network().MaxLinkUtilization(run.engine.Now());
    out.events = run.engine.events_executed();
    out.samples = std::move(run.latencies);
    return out;
  };

  TrialOutcome merged = RunTrials(spec.cfg, spec.topologies, body);
  if (spec.tracer != nullptr) spec.tracer->Append(merged.trace);
  const SampleSet& all = merged.samples;
  const long completed = merged.completed;
  const long launched = merged.launched;
  const double util_sum = merged.util_sum;

  LoadRunResult out;
  out.completed = completed;
  out.unfinished = launched - completed;
  out.events_executed = merged.events;
  out.max_link_utilization =
      util_sum / static_cast<double>(spec.topologies);
  // Measured window: warmup..horizon, per host, per topology.
  const double window_host_cycles =
      static_cast<double>(spec.horizon - spec.warmup) *
      static_cast<double>(spec.cfg.topology.num_hosts) *
      static_cast<double>(spec.topologies);
  out.achieved_throughput =
      static_cast<double>(completed) * static_cast<double>(spec.degree) *
      static_cast<double>(spec.cfg.message.TotalFlits()) /
      window_host_cycles;
  if (all.count() > 0) {
    out.mean_latency = all.Mean();
    out.p50_latency = all.Quantile(0.5);
    out.p95_latency = all.Quantile(0.95);
  }
  const double unfinished_frac =
      launched > 0 ? static_cast<double>(out.unfinished) /
                         static_cast<double>(launched)
                   : 0.0;
  out.saturated = unfinished_frac > spec.saturation_unfinished_frac ||
                  out.mean_latency > spec.saturation_latency ||
                  all.count() == 0;
  out.metrics = std::move(merged.metrics);
  return out;
}

}  // namespace irmc
