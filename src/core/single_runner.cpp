#include "core/single_runner.hpp"

#include <cstdio>
#include <optional>

#include "common/rng.hpp"
#include "core/parallel.hpp"
#include "core/trial.hpp"
#include "core/trial_setup.hpp"

namespace irmc {

MulticastResult PlayOnce(const System& sys, const SimConfig& cfg,
                         McastPlan plan, Tracer* tracer,
                         MetricsRegistry* metrics) {
  Engine engine;
  McastDriver driver(engine, sys, cfg, tracer, metrics);
  std::optional<MulticastResult> result;
  driver.Launch(std::move(plan), 0,
                [&result](const MulticastResult& r) { result = r; });
  engine.RunToQuiescence();
  IRMC_ENSURE(result.has_value());
  engine.CollectMetrics(driver.metrics());
  driver.network().CollectMetrics(engine.Now());
  return *result;
}

SingleRunResult RunSingleMulticast(const SingleRunSpec& spec) {
  IRMC_EXPECT(spec.multicast_size >= 1);
  IRMC_EXPECT(spec.multicast_size < spec.cfg.topology.num_hosts);

  // Trial = one topology: build the system for the derived seed, then
  // draw and play samples_per_topology independent multicasts. The
  // trial owns its Engine, System, McastDriver, Rng, MetricsRegistry,
  // and Tracer — nothing mutable crosses trial boundaries.
  const auto body = [&spec](const TrialContext& ctx) {
    TrialOutcome out;
    const TrialSetup setup =
        PrepareTrial(out, ctx, spec.cfg.topology, spec.tracer,
                     spec.trace_cap, spec.root_policy);
    Tracer* trace = setup.tracer;
    const auto scheme = MakeScheme(spec.scheme, spec.cfg.host);
    const auto& sys = setup.sys;
    Rng rng(spec.cfg.seed * 7919 +
            static_cast<std::uint64_t>(ctx.trial_index));
    for (int s = 0; s < spec.samples_per_topology; ++s) {
      // Draw source + destinations (distinct, excluding the source).
      auto draw = rng.SampleWithoutReplacement(sys->num_nodes(),
                                               spec.multicast_size + 1);
      const NodeId src = static_cast<NodeId>(draw.front());
      std::vector<NodeId> dests;
      for (std::size_t i = 1; i < draw.size(); ++i)
        dests.push_back(static_cast<NodeId>(draw[i]));

      McastPlan plan = scheme->Plan(*sys, src, dests, spec.cfg.message,
                                    spec.cfg.headers);
      const MulticastResult r =
          PlayOnce(*sys, spec.cfg, std::move(plan), trace, &out.metrics);
      out.latency.Add(static_cast<double>(r.Latency()));
    }
    return out;
  };

  TrialOutcome merged = RunTrials(spec.cfg, spec.topologies, body);
  if (spec.tracer != nullptr) spec.tracer->Append(merged.trace);

  SingleRunResult out;
  out.samples = static_cast<int>(merged.latency.count());
  out.mean_latency = merged.latency.mean();
  out.min_latency = merged.latency.min();
  out.max_latency = merged.latency.max();
  out.metrics = std::move(merged.metrics);
  return out;
}

}  // namespace irmc
