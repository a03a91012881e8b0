// Scheme shootout: the paper's headline question — network interface or
// switch? — answered over the R = o_host/o_ni axis for one topology,
// with the crossovers annotated.
//
//   $ ./scheme_shootout
#include <cstdio>
#include <vector>

#include "core/parallel.hpp"
#include "core/single_runner.hpp"

int main() {
  using namespace irmc;
  std::printf("Where to provide multicast support? 15-way multicast, "
              "32 nodes / 8 switches, single 128-flit packet.\n");
  std::printf("(topology trials on %d threads; set IRMC_THREADS to "
              "change)\n\n",
              ParallelThreads());
  std::printf("%6s %14s %14s %14s %14s   %s\n", "R", "uni-binomial",
              "ni-kbinomial", "tree-worm", "path-worm", "winner (NI vs switch)");

  for (double r : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    double mean[4];
    int i = 0;
    for (SchemeKind kind : kAllSchemes) {
      SingleRunSpec spec;
      spec.scheme = kind;
      spec.multicast_size = 15;
      spec.topologies = 8;
      spec.samples_per_topology = 4;
      spec.cfg.host.SetRatio(r);
      mean[i++] = RunSingleMulticast(spec).mean_latency;
    }
    const char* verdict =
        mean[1] < mean[3] ? "NI support beats path worms"
                          : "path worms beat NI support";
    std::printf("%6.2f %14.0f %14.0f %14.0f %14.0f   %s\n", r, mean[0],
                mean[1], mean[2], mean[3], verdict);
  }

  std::printf("\nThe single tree worm wins at every R: one phase, one "
              "host overhead, switch hardware does the rest.\n");
  std::printf("The NI-vs-path crossover is the paper's central finding: "
              "cheap NI firmware (large R) favours NI forwarding.\n");
  return 0;
}
