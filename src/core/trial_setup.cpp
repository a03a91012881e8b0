#include "core/trial_setup.hpp"

namespace irmc {

TrialSetup PrepareTrial(TrialOutcome& out, const TrialContext& ctx,
                        const TopologySpec& topology,
                        const Tracer* trace_sink, std::size_t trace_cap,
                        RootPolicy root_policy) {
  TrialSetup setup;
  if (trace_sink != nullptr) {
    out.trace = Tracer(trace_cap);
    out.trace.set_trial(ctx.trial_index);
    setup.tracer = &out.trace;
  }
  setup.sys =
      SystemBuilder::Global().Build(topology, ctx.derived_seed, root_policy);
  return setup;
}

}  // namespace irmc
