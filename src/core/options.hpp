// Options, statistics and result containers of the top-alignment finders.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "align/engine.hpp"
#include "align/types.hpp"
#include "core/top_alignment.hpp"

namespace repro::core {

/// Realignment ordering (§3). kBestFirst is the paper's contribution: scores
/// from older override triangles are upper bounds, so realigning
/// best-score-first provably skips rectangles that cannot win (typically
/// 90–97 % of realignments). kExhaustiveSweep realigns every rectangle
/// before each acceptance — the old algorithm's schedule — and exists for
/// the ablation benches; both produce identical top alignments.
enum class RescanPolicy { kBestFirst, kExhaustiveSweep };

/// How first-alignment bottom rows (the shadow-rejection references and the
/// dominant data structure, Appendix A) are kept.
///   kArchiveRows    — the paper's implementation: m(m-1)/2 i16 entries.
///   kRecomputeRows  — the paper's proposed linear-memory variant: originals
///                     are recomputed on demand with an empty triangle. This
///                     costs one extra (override-free) alignment per
///                     realignment — and realignments are the rare case
///                     (best-first prunes ~97 %), so the total overhead is a
///                     few percent while the O(n^2) archive disappears.
enum class MemoryMode { kArchiveRows, kRecomputeRows };

struct FinderOptions {
  /// Top alignments requested; the paper uses 10–30, more for long
  /// sequences, 50 for Table 1 and up to 100 for Fig. 8.
  int num_top_alignments = 20;
  /// Stop early once no remaining alignment can reach this score.
  align::Score min_score = 1;
  RescanPolicy policy = RescanPolicy::kBestFirst;
  MemoryMode memory = MemoryMode::kArchiveRows;
  /// Byte budget of the checkpoint-resume realignment cache (0 disables all
  /// incremental realignment, including the low-memory untouched-lane skip).
  /// The override triangle only grows, so DP rows above the topmost
  /// newly-overridden pair are identical between rounds; sweeps resume below
  /// the deepest clean checkpoint instead of recomputing from row 1. The
  /// sequential and shared-memory finders keep one cache of this size for
  /// all their workers; the cluster finder gives each rank an even share.
  std::size_t checkpoint_mem = std::size_t{256} << 20;  // 256 MiB
};

struct FinderStats {
  std::uint64_t first_alignments = 0;  ///< score-only alignments, empty triangle
  std::uint64_t realignments = 0;      ///< demanded re-alignments (stale member)
  std::uint64_t speculative = 0;       ///< lane-mates recomputed while current
  std::uint64_t tracebacks = 0;        ///< accepted top alignments traced
  std::uint64_t queue_pops = 0;
  std::uint64_t cells = 0;             ///< matrix lane-cells computed
  // Checkpoint-resume realignment cache (zero when disabled/unsupported):
  std::uint64_t ckpt_hits = 0;        ///< sweeps resumed from a checkpoint
  std::uint64_t ckpt_misses = 0;      ///< lookups that had to start at row 1
  std::uint64_t ckpt_evictions = 0;   ///< cache entries evicted by the budget
  std::uint64_t rows_skipped = 0;     ///< realignment DP rows restored, not swept
  std::uint64_t rows_swept = 0;       ///< realignment DP rows a from-scratch run sweeps
  std::uint64_t skipped_realignments = 0;  ///< low-memory untouched lanes bumped
  /// The engines' precision-ladder, profile and band-sweep counts (zero for
  /// engines without SIMD profiles). `cells` counts precision.cells_reused
  /// as computed.
  align::PrecisionStats precision;
  /// Wall time inside realignment-phase sweeps (version > 0); the parallel
  /// finder sums it across threads like idle_seconds.
  double realign_seconds = 0.0;
  double seconds = 0.0;
  /// Wall time worker threads spent parked on the scheduler's condition
  /// variable, summed over threads (shared-memory finder only; the paper's
  /// §5.1 speculation exists precisely to shrink this).
  double idle_seconds = 0.0;
};

struct FinderResult {
  std::vector<TopAlignment> tops;
  FinderStats stats;
};

}  // namespace repro::core
