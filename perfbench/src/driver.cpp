#include "driver.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/trial.hpp"
#include "mcast/scheme.hpp"
#include "metrics/export.hpp"
#include "sim/engine.hpp"
#include "topology/fault.hpp"
#include "topology/system.hpp"
#include "topology/system_builder.hpp"
#include "verify/deadlock.hpp"
#include "verify/invariants.hpp"

namespace perfbench {

using namespace irmc;

void Digest::Bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::uint64_t PointOutput::Finish() const {
  Digest d = stream;
  d.Str(ToJson(metrics));
  return d.value();
}

int VerifyResult::Systems(std::size_t g) const {
  return static_cast<int>(std::count(group.begin(), group.end(), g));
}

int VerifyResult::Failures(std::size_t g) const {
  int n = 0;
  for (std::size_t i = 0; i < reports.size(); ++i)
    if (group[i] == g && !reports[i].pass()) ++n;
  return n;
}

std::uint64_t VerifyResult::GroupDigest(std::size_t g) const {
  Digest d;
  for (std::size_t i = 0; i < reports.size(); ++i)
    if (group[i] == g) d.Str(verify::Render(reports[i]));
  return d.value();
}

namespace {

/// Destinations per multicast in the load sweeps (the panels' degree).
constexpr int kLoadDegree = 8;

std::uint8_t Tag(SchemeKind k) { return static_cast<std::uint8_t>(k); }

/// One topology replica of open-loop traffic; the same arrival process,
/// destination draws, seeds and measurement window as load_runner's
/// TopologyRun (uniform pattern).
class LoadReplica {
 public:
  LoadReplica(const LoadPointSpec& spec, const System& sys,
              std::uint64_t seed, MetricsRegistry* reg, Recorder& rec,
              Digest& digest)
      : spec_(spec), sys_(sys), rec_(rec), digest_(digest) {
    {
      Scope s(rec_, Layer::kDriverNew, /*setup=*/true);
      driver_.emplace(engine_, sys, spec.cfg, nullptr, reg);
    }
    Scope s(rec_, Layer::kSeed, /*setup=*/true);
    scheme_ = MakeScheme(spec.scheme, spec.cfg.host);
    const double flits = static_cast<double>(spec.cfg.message.TotalFlits());
    interarrival_mean_ =
        static_cast<double>(kLoadDegree) * flits / spec.effective_load;
    Rng seeder(seed);
    for (NodeId n = 0; n < sys.num_nodes(); ++n) {
      host_rng_.push_back(seeder.Fork());
      ScheduleArrival(n);
    }
  }

  /// Runs to twice the horizon (the runner's drain), then collects the
  /// engine and network metrics into out.metrics, the registry the
  /// driver was constructed with.
  void Run(TrialOutcome& out) {
    {
      Scope s(rec_, Layer::kRun);
      engine_.RunUntil(spec_.horizon * 2);
    }
    {
      Scope s(rec_, Layer::kCollect);
      engine_.CollectMetrics(out.metrics);
      driver_->network().CollectMetrics(engine_.Now());
    }
    out.completed = completed_measured_;
    out.launched = launched_measured_;
    out.events = engine_.events_executed();
    out.samples = std::move(latencies_);
  }

 private:
  void ScheduleArrival(NodeId n) {
    Rng& rng = host_rng_[static_cast<std::size_t>(n)];
    const double dt = rng.NextExponential(interarrival_mean_);
    const Cycles delay = std::max<Cycles>(1, static_cast<Cycles>(dt));
    engine_.ScheduleAfter(delay, [this, n]() {
      if (engine_.Now() >= spec_.horizon) return;
      LaunchOne(n);
      ScheduleArrival(n);
    });
  }

  void LaunchOne(NodeId src) {
    Rng& rng = host_rng_[static_cast<std::size_t>(src)];
    auto draw =
        rng.SampleWithoutReplacement(sys_.num_nodes() - 1, kLoadDegree);
    std::vector<NodeId> dests;
    for (auto d : draw)
      dests.push_back(static_cast<NodeId>(d >= src ? d + 1 : d));
    std::optional<McastPlan> plan;
    {
      Scope s(rec_, Layer::kPlan, false, Tag(spec_.scheme));
      plan.emplace(scheme_->Plan(sys_, src, dests, spec_.cfg.message,
                                 spec_.cfg.headers));
    }
    const Cycles start = engine_.Now();
    const bool measured = start >= spec_.warmup;
    if (measured) ++launched_measured_;
    Scope s(rec_, Layer::kLaunch);
    driver_->Launch(std::move(*plan), start,
                    [this, measured](const MulticastResult& r) {
                      digest_.I64(r.id);
                      digest_.I64(r.start);
                      digest_.I64(r.completion);
                      if (!measured) return;
                      ++completed_measured_;
                      latencies_.Add(static_cast<double>(r.Latency()));
                    });
  }

  const LoadPointSpec& spec_;
  const System& sys_;
  Recorder& rec_;
  Digest& digest_;
  Engine engine_;
  std::optional<McastDriver> driver_;
  std::unique_ptr<MulticastScheme> scheme_;
  std::vector<Rng> host_rng_;
  double interarrival_mean_ = 0.0;
  long launched_measured_ = 0;
  long completed_measured_ = 0;
  SampleSet latencies_;
};

/// Removes up to `faults` random survivable links (irmc_verify's
/// InjectFaults). Returns the number removed.
int InjectFaults(Graph& g, int faults, Rng& rng) {
  int injected = 0;
  for (int f = 0; f < faults; ++f) {
    std::vector<LinkRef> links = AllLinks(g);
    rng.Shuffle(links);
    bool removed = false;
    for (const LinkRef& link : links) {
      if (auto degraded = WithoutLink(g, link.sw, link.port)) {
        g = std::move(*degraded);
        removed = true;
        ++injected;
        break;
      }
    }
    if (!removed) break;
  }
  return injected;
}

/// VerifySystem plus the multicast deadlock analysis, timed as two
/// layers; the same report `VerifySystem(sys, label, deadlock)` returns.
verify::VerifyReport VerifyOne(const System& sys, std::string label,
                               const verify::DeadlockSpec& deadlock,
                               Recorder& rec) {
  verify::VerifyReport report;
  {
    Scope s(rec, Layer::kInvariants);
    report = verify::VerifySystem(sys, std::move(label));
  }
  Scope s(rec, Layer::kDeadlock);
  report.checks.push_back(verify::CheckMulticastDeadlock(sys, deadlock));
  return report;
}

}  // namespace

LoadPointResult RunLoadPoint(const LoadPointSpec& spec, Recorder& rec) {
  LoadPointResult res;
  TrialOutcome merged;
  for (int r = 0; r < spec.replicas; ++r) {
    TrialOutcome out;
    std::shared_ptr<const System> sys;
    {
      Scope s(rec, Layer::kTopoBuild, /*setup=*/true);
      sys = SystemBuilder::Global().Build(
          spec.cfg.topology, spec.cfg.seed + static_cast<std::uint64_t>(r));
    }
    LoadReplica replica(spec, *sys,
                        spec.cfg.seed * 104729 + static_cast<std::uint64_t>(r),
                        &out.metrics, rec, res.output.stream);
    replica.Run(out);
    merged.Merge(out);
  }

  res.completed = merged.completed;
  res.unfinished = merged.launched - merged.completed;
  res.events = merged.events;
  if (merged.samples.count() > 0) {
    res.mean_latency = merged.samples.Mean();
    res.p95_latency = merged.samples.Quantile(0.95);
  }
  res.output.stream.I64(res.completed);
  res.output.stream.I64(res.unfinished);
  res.output.metrics = std::move(merged.metrics);
  return res;
}

SinglePointResult RunSinglePoint(const SinglePointSpec& spec, Recorder& rec) {
  SinglePointResult res;
  TrialOutcome merged;
  for (int t = 0; t < spec.topologies; ++t) {
    TrialOutcome out;
    std::shared_ptr<const System> sys;
    {
      Scope s(rec, Layer::kTopoBuild, /*setup=*/true);
      sys = SystemBuilder::Global().Build(
          spec.cfg.topology, spec.cfg.seed + static_cast<std::uint64_t>(t));
    }
    const auto scheme = MakeScheme(spec.scheme, spec.cfg.host);
    Rng rng(spec.cfg.seed * 7919 + static_cast<std::uint64_t>(t));
    for (int k = 0; k < spec.samples_per_topology; ++k) {
      auto draw = rng.SampleWithoutReplacement(sys->num_nodes(),
                                               spec.multicast_size + 1);
      const auto src = static_cast<NodeId>(draw.front());
      std::vector<NodeId> dests;
      for (std::size_t i = 1; i < draw.size(); ++i)
        dests.push_back(static_cast<NodeId>(draw[i]));
      std::optional<McastPlan> plan;
      {
        Scope s(rec, Layer::kPlan, false, Tag(spec.scheme));
        plan.emplace(scheme->Plan(*sys, src, dests, spec.cfg.message,
                                  spec.cfg.headers));
      }
      // PlayOnce, call by call.
      Engine engine;
      std::optional<McastDriver> driver;
      {
        Scope s(rec, Layer::kDriverNew, /*setup=*/true);
        driver.emplace(engine, *sys, spec.cfg, nullptr, &out.metrics);
      }
      std::optional<MulticastResult> result;
      {
        Scope s(rec, Layer::kLaunch, /*setup=*/true);
        driver->Launch(std::move(*plan), 0,
                       [&result](const MulticastResult& r) { result = r; });
      }
      {
        Scope s(rec, Layer::kRun);
        engine.RunToQuiescence();
      }
      IRMC_ENSURE(result.has_value());
      {
        Scope s(rec, Layer::kCollect);
        engine.CollectMetrics(out.metrics);
        driver->network().CollectMetrics(engine.Now());
      }
      out.events += engine.events_executed();
      out.latency.Add(static_cast<double>(result->Latency()));
      res.output.stream.I64(result->Latency());
      res.output.stream.I64(result->completion);
    }
    merged.Merge(out);
  }

  res.latency = merged.latency;
  res.events = merged.events;
  res.output.metrics = std::move(merged.metrics);
  return res;
}

VerifyResult RunVerify(const VerifySpec& spec, Recorder& rec) {
  const verify::DeadlockSpec deadlock;  // irmc_verify --deadlock defaults
  VerifyResult res;
  const auto keep = [&](std::size_t g, verify::VerifyReport report) {
    if (!report.pass()) ++res.failed;
    res.reports.push_back(std::move(report));
    res.group.push_back(g);
  };
  for (int i = 0; i < spec.trials; ++i) {
    const std::size_t g =
        static_cast<std::size_t>(i) % std::size(kVerifySwitches);
    TopologySpec topo;  // 32 hosts, 8-port switches by default
    topo.num_switches = kVerifySwitches[g];
    const std::uint64_t trial_seed = spec.seed + static_cast<std::uint64_t>(i);
    const std::string label = "trial " + std::to_string(i) + " (S=" +
                              std::to_string(topo.num_switches) +
                              ", seed=" + std::to_string(trial_seed) + ")";
    std::unique_ptr<System> sys;
    {
      Scope s(rec, Layer::kTopoBuild, /*setup=*/true);
      sys = System::Build(topo, trial_seed);
    }
    ++res.verified;
    keep(g, VerifyOne(*sys, label, deadlock, rec));

    std::optional<System> faulted;
    int injected = 0;
    {
      Scope s(rec, Layer::kFaultRebuild);
      Graph degraded = sys->graph;
      Rng rng(trial_seed * 0x9e3779b97f4a7c15ULL + 1);
      injected = InjectFaults(degraded, 1, rng);
      if (injected > 0) faulted.emplace(std::move(degraded));
    }
    if (!faulted) continue;
    ++res.faulted;
    keep(g, VerifyOne(*faulted,
                      label + " (+" + std::to_string(injected) + " faults)",
                      deadlock, rec));
  }
  return res;
}

}  // namespace perfbench
