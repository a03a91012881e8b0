// Saturation probe: push multicast load until each scheme saturates and
// report the last sustainable effective applied load (the knee the
// paper's Figures 9-11 show as the latency hockey stick).
//
//   $ ./saturation_probe [degree]
#include <cstdio>
#include <cstdlib>

#include "core/load_runner.hpp"
#include "core/parallel.hpp"

int main(int argc, char** argv) {
  using namespace irmc;
  const int degree = argc > 1 ? std::atoi(argv[1]) : 8;

  std::printf("saturation probe: %d-way multicasts, defaults otherwise "
              "(topology trials on %d threads)\n\n",
              degree, ParallelThreads());
  std::printf("%-14s %22s %18s\n", "scheme", "last sustainable load",
              "latency there");

  for (SchemeKind kind : kAllSchemes) {
    double sustainable = 0.0;
    double latency = 0.0;
    for (double load = 0.1; load <= 1.2; load += 0.1) {
      LoadRunSpec spec;
      spec.scheme = kind;
      spec.degree = degree;
      spec.effective_load = load;
      spec.topologies = 2;
      spec.horizon = 120'000;
      spec.warmup = 12'000;
      const LoadRunResult r = RunLoadSweepPoint(spec);
      if (r.saturated) break;
      sustainable = load;
      latency = r.mean_latency;
    }
    std::printf("%-14s %22.1f %18.0f\n", ToString(kind), sustainable,
                latency);
  }
  std::printf("\nHigher sustainable load = later saturation. The tree worm "
              "injects each packet once; the software schemes multiply "
              "traffic and saturate earlier.\n");
  return 0;
}
