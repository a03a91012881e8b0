// Distributed-shared-memory invalidation workload.
//
// The paper motivates multicast with system-level uses: "cache
// invalidations, acknowledgment collection, and synchronization" in
// DSM systems (its reference [2] applies multidestination worms to
// exactly this). This workload models a directory-based write-
// invalidate protocol: a write to a shared line multicasts short
// invalidation messages to the line's sharers; each sharer returns a
// short ack unicast to the writer; the write completes when all acks
// are home. Write latency is therefore one multicast plus an ack
// gather — and the multicast scheme choice shows up directly in write
// stall time.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/stats.hpp"
#include "core/config.hpp"
#include "metrics/metrics.hpp"

namespace irmc {

class Tracer;

struct DsmParams {
  int num_lines = 64;      ///< directory entries with active sharer sets
  int sharers_per_line = 8;
  int inval_flits = 16;    ///< invalidation payload (address + control)
  int ack_flits = 8;       ///< acknowledgment payload
  /// Mean cycles between shared-write misses per node (exponential).
  double write_interarrival = 50'000.0;
  Cycles warmup = 10'000;
  Cycles horizon = 150'000;
  int topologies = 3;
  /// Optional trace sink: per-trial tracers (stamped with the trial
  /// index) are appended here in trial-index order after the merge.
  /// Tracing never forces serial execution.
  Tracer* tracer = nullptr;
  /// Ring-buffer cap per trial tracer; 0 = unbounded.
  std::size_t trace_cap = 0;
};

struct DsmResult {
  double mean_write_latency = 0.0;  ///< cycles, write start -> all acks
  double p95_write_latency = 0.0;
  long writes_completed = 0;
  long writes_started = 0;
  /// Always-on metrics: each replica records into its own registry,
  /// merged here in trial-index order.
  MetricsRegistry metrics;
};

/// Runs the workload with `scheme` carrying the invalidations (acks are
/// always conventional unicasts). Deterministic in cfg.seed.
DsmResult RunDsmInvalidation(const SimConfig& cfg, SchemeKind scheme,
                             const DsmParams& params);

}  // namespace irmc
