// Shared per-trial setup: tracer and System.
//
// Every runner's trial body used to open with the same boilerplate —
// seat a capped Tracer tagged with the trial index when the run is
// traced, and build the trial's System. PrepareTrial centralizes that
// block, and routes System construction through SystemBuilder's cache
// so trials that revisit a (spec, seed, policy) cell — engine
// cross-checks, sweep re-runs in one process — share one immutable
// System instead of re-deriving its tables.
#pragma once

#include <memory>

#include "core/trial.hpp"
#include "topology/system.hpp"
#include "topology/system_builder.hpp"

namespace irmc {

/// A borrowed view into one trial's TrialOutcome plus its System. The
/// tracer pointer aliases `out`; keep the TrialSetup inside the trial
/// body. Trials record metrics straight into `out.metrics`.
struct TrialSetup {
  Tracer* tracer = nullptr;  ///< &out.trace, or null
  std::shared_ptr<const System> sys;
};

/// Wires `out` for one trial: per-trial tracer (when `trace_sink` is
/// non-null; capped at `trace_cap` and tagged with ctx.trial_index), and
/// the trial's System from SystemBuilder::Global() for ctx.derived_seed.
TrialSetup PrepareTrial(TrialOutcome& out, const TrialContext& ctx,
                        const TopologySpec& topology,
                        const Tracer* trace_sink, std::size_t trace_cap,
                        RootPolicy root_policy = RootPolicy::kLowestId);

}  // namespace irmc
