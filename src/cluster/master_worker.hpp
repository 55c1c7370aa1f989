// Distributed-memory master/worker finder (paper §4.3) over the MPI-shaped
// message substrate (cluster/mpisim.hpp).
//
// Rank 0 is sacrificed as the master: it owns the core::Search (queue,
// acceptance guard and the sequential traceback) and the bottom-row
// archive, and otherwise only messages and recovers. Workers sweep through
// a core::Sweeper — a private engine and checkpoint cache — over a
// replicated override triangle, kept current by update broadcasts;
// original bottom rows are fetched from the master on demand and cached
// ("once computed, the last row data never changes"), or recomputed under
// MemoryMode::kRecomputeRows. The search is the sequential finder's, so
// the accepted top alignments are identical for every rank count and every
// finder option.
//
// Unlike the paper's reliable Myrinet deployment, this implementation is
// fault tolerant. The protocol survives message drops, bounded delays,
// duplicate deliveries, and worker crashes (injected deterministically via
// ClusterOptions::fault_plan) as long as the master and at least one worker
// stay alive:
//   * every master<->worker request is deduplicated by (group, version), so
//     timed-out work can be requeued and reassigned without double-applying;
//   * workers that fall behind the override-triangle version resynchronise
//     from the master (cumulative sync replies are idempotent);
//   * partitioned row shards are re-homed by recomputation: row ownership is
//     advisory routing, and any worker asked for a v0 bottom row it does not
//     hold rebuilds it deterministically from the sequence.
// Because results are deterministic functions of (group, version) and the
// acceptance guard is unchanged, the accepted top alignments under any such
// fault schedule are identical to the fault-free — and sequential — run's.
//
// The timeouts are fixed (master_worker.cpp) and arm only under a fault
// plan; closed-rank detection is always on. A worker's task deadline
// adapts: it doubles on every lapse and, on every applied result, resets
// to twice the longest sweep so far (at least 60 ms), so a sweep slower
// than the deadline is not requeued forever. Sweep lengths are the
// workers' own (each result carries one); a stale result restarts the
// clock of the task its worker sweeps next.
#pragma once

#include <cstdint>
#include <vector>

#include "align/engine.hpp"
#include "cluster/fault.hpp"
#include "core/options.hpp"
#include "seq/scoring.hpp"
#include "seq/sequence.hpp"

namespace repro::cluster {

/// Where first-alignment bottom rows live (paper §4.3).
///   kMasterReplica — the paper's implementation: the master archives every
///     row; workers fetch replicas on demand and cache them. Requires the
///     master to hold the full m(m-1)/2 store (the paper notes this breaks
///     down past m ≈ 40000 at 2003 memory sizes).
///   kPartitioned — the paper's proposed alternative for that regime: rows
///     are partitioned over the workers by r; consumers (other workers, and
///     the master at traceback time) ask the *owner*, which services
///     requests whenever it touches its mailbox — modeling exactly the
///     polling concern the paper raises.
enum class RowStorage { kMasterReplica, kPartitioned };

struct ClusterOptions {
  /// Total ranks including the master; ranks == 1 runs a degenerate
  /// master-computes-everything mode (for testing the protocol plumbing).
  int ranks = 4;
  RowStorage row_storage = RowStorage::kMasterReplica;
  core::FinderOptions finder;
  /// Deterministic fault schedule injected into the communicator. Must not
  /// crash rank 0 and must leave at least one worker alive — the regime in
  /// which recovery (and identical output) is guaranteed. Empty = reliable.
  FaultPlan fault_plan;
};

struct ClusterRunInfo {
  std::uint64_t messages = 0;
  std::uint64_t payload_words = 0;
  std::uint64_t row_replicas_served = 0;  ///< master-served (replica mode)
  std::uint64_t row_deposits = 0;  ///< cross-rank owner deposits (partitioned)
  /// Per-sender breakdown, indexed by rank (rank 0 = master): separates
  /// master control traffic from worker results/deposits/replica replies.
  std::vector<std::uint64_t> messages_by_rank;
  std::vector<std::uint64_t> payload_words_by_rank;

  /// Recovery accounting (all zero on a fault-free run).
  std::uint64_t retries = 0;           ///< timed-out requests resent/requeued
  std::uint64_t reassignments = 0;     ///< tasks re-homed off dead workers
  std::uint64_t heartbeat_misses = 0;  ///< task deadlines that lapsed (the
                                       ///< task was requeued; no ping is sent)
  std::uint64_t stale_results = 0;     ///< duplicate/superseded results dropped
  std::uint64_t row_rebuilds = 0;      ///< partitioned rows recomputed on demand
  std::uint64_t sync_requests = 0;     ///< worker version resynchronisations
  std::uint64_t workers_lost = 0;      ///< ranks observed dead by the master
  FaultStats fault_stats;              ///< injections, by kind and in total
};

core::FinderResult find_top_alignments_cluster(const seq::Sequence& s,
                                               const seq::Scoring& scoring,
                                               const ClusterOptions& options,
                                               const align::EngineFactory& factory,
                                               ClusterRunInfo* info = nullptr);

}  // namespace repro::cluster
