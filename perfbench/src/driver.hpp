// The benchmark's single-threaded driver.
//
// It makes the same library calls, in the same order and with the same
// seeds, as the figure runners (core/load_runner.cpp,
// core/single_runner.cpp) and tools/irmc_verify.cpp, but wraps each call
// in a Scope so that set-up time and, in traced passes, per-layer spans
// are measured from outside the library. tests/test_fidelity.cpp checks
// that the driver reproduces those runners' outputs exactly.
//
// Every point's simulated output is folded into a 64-bit FNV-1a digest
// (per-multicast completion cycles plus the merged MetricsRegistry JSON;
// per-System verification reports for the verify sweep) that run.py
// compares with the committed references. Only the per-multicast cycles
// are folded in while the point runs; rendering the registry and the
// reports to text is left until the benchmark has read its clocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/config.hpp"
#include "metrics/metrics.hpp"
#include "spans.hpp"
#include "verify/invariants.hpp"

namespace perfbench {

/// Incremental 64-bit FNV-1a.
class Digest {
 public:
  void Bytes(const void* data, std::size_t n);
  void I64(std::int64_t v) { Bytes(&v, sizeof v); }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// A simulation point's output, digested by Finish after timing.
struct PointOutput {
  Digest stream;  ///< per-multicast cycles, folded in while running
  irmc::MetricsRegistry metrics;  ///< merged in replica/topology order

  /// `stream` continued with the registry JSON.
  std::uint64_t Finish() const;
};

/// One open-loop sweep point: scheme x effective load over `replicas`
/// topology replicas (RunLoadSweepPoint with uniform destinations and
/// 8 destinations per multicast).
struct LoadPointSpec {
  irmc::SimConfig cfg;
  irmc::SchemeKind scheme = irmc::SchemeKind::kTreeWorm;
  double effective_load = 0.2;
  irmc::Cycles warmup = 20'000;
  irmc::Cycles horizon = 150'000;
  int replicas = 2;
};

struct LoadPointResult {
  long completed = 0;   ///< measured multicasts finished (the ops)
  long unfinished = 0;  ///< measured multicasts still in flight
  double mean_latency = 0.0;
  double p95_latency = 0.0;
  std::uint64_t events = 0;
  PointOutput output;
};

LoadPointResult RunLoadPoint(const LoadPointSpec& spec, Recorder& rec);

/// One single-multicast sweep point (RunSingleMulticast): each sample
/// plays on a fresh Engine and McastDriver.
struct SinglePointSpec {
  irmc::SimConfig cfg;
  irmc::SchemeKind scheme = irmc::SchemeKind::kTreeWorm;
  int multicast_size = 8;
  int topologies = 10;
  int samples_per_topology = 4;
};

struct SinglePointResult {
  irmc::StreamingStats latency;   ///< merged in topology order
  std::uint64_t events = 0;
  PointOutput output;
};

SinglePointResult RunSinglePoint(const SinglePointSpec& spec, Recorder& rec);

/// Switch counts the verify sweep cycles through, as irmc_verify's
/// default `--switches 8,16,32`.
inline constexpr int kVerifySwitches[] = {8, 16, 32};

/// The `irmc_verify --deadlock --faults 1` loop over `trials` topologies
/// (32 hosts, 8-port switches) starting at topology seed `seed`.
struct VerifySpec {
  int trials = 20;
  std::uint64_t seed = 1;
};

struct VerifyResult {
  int verified = 0;
  int faulted = 0;
  int failed = 0;
  /// Every report (pristine, then faulted, per trial) in irmc_verify's
  /// order; group[i] indexes kVerifySwitches for reports[i].
  std::vector<irmc::verify::VerifyReport> reports;
  std::vector<std::size_t> group;

  /// Systems verified, and of those failed, with kVerifySwitches[g].
  int Systems(std::size_t g) const;
  int Failures(std::size_t g) const;
  /// Digest of the rendered reports of group g, in order.
  std::uint64_t GroupDigest(std::size_t g) const;
};

VerifyResult RunVerify(const VerifySpec& spec, Recorder& rec);

}  // namespace perfbench
