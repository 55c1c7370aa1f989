// Discrete-event simulation of the paper's cluster (§4.3 / Fig. 8).
//
// Substitution note (see DESIGN.md): the paper measures a 64-node dual-
// Pentium-III Myrinet cluster; this host is a single CPU. The simulator
// replays the *identical* distributed scheduling algorithm — master
// sacrifice, best-first assignment, speculative realignment, deterministic
// acceptance guard, sequential master-side traceback, row-replica fetches —
// under virtual time, with compute charged as (lane-cells / calibrated
// rate) and communication as (latency + bytes / bandwidth). Real alignment
// scores from the AlignmentOracle drive every scheduling decision, so the
// speedup *shape* (near-perfect scaling while the first sweep dominates;
// decay with more top alignments because only a few percent of rectangles
// need realignment between acceptances) emerges from the algorithm itself
// rather than from a fitted curve.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/oracle.hpp"
#include "core/options.hpp"

namespace repro::cluster {

struct ClusterModel {
  /// Total CPUs. 1 = the sequential baseline (no master sacrifice, no
  /// communication); otherwise one CPU is the master, the rest are workers.
  int processors = 128;
  int cpus_per_node = 2;
  /// Lane-cells per second of one worker CPU running the modeled engine
  /// (calibrate with a real engine on this host; see bench_fig8).
  double worker_cells_per_sec = 1e9;
  /// Scalar cells per second of the master's full-matrix traceback.
  double traceback_cells_per_sec = 2.5e8;
  double latency_sec = 20e-6;                 ///< per message
  double bandwidth_bytes_per_sec = 2.5e8;     ///< Myrinet-class (2 Gb/s)
  /// Per-CPU throughput factor when both CPUs of a node compute. 1.0 models
  /// the cache-aware kernel (the paper's 100 % second-CPU gain); ~0.625
  /// models the memory-bus-bound non-cache-aware kernel (25 % gain).
  double second_cpu_efficiency = 1.0;
};

struct SimResult {
  double makespan_sec = 0.0;          ///< virtual time of the last acceptance
  std::vector<double> accept_times;   ///< virtual completion time per top
  std::uint64_t assignments = 0;      ///< group alignments executed
  std::uint64_t row_replica_bytes = 0;
  double worker_busy_fraction = 0.0;  ///< busy time / (workers x makespan)
  int tops_found = 0;
  /// Virtual seconds charged to communication (latencies + byte transfer),
  /// summed over assignments — the modelled overhead behind Fig. 8's
  /// efficiency decay.
  double comm_seconds_modelled = 0.0;
  std::uint64_t comm_messages_modelled = 0;  ///< modelled message count
};

/// Simulates one run; the oracle supplies real scores (memoised across
/// calls, so a sweep over processor counts shares almost all compute).
SimResult simulate_cluster(AlignmentOracle& oracle, const ClusterModel& model,
                           const core::FinderOptions& finder);

}  // namespace repro::cluster
