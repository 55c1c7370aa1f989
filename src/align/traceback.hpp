// Traceback for accepted top alignments.
//
// Score-only kernels keep one row; when a rectangle is *accepted* as a top
// alignment the finder walks the best valid bottom-row cell back under the
// current override triangle to reconstruct the aligned pairs (which then
// feed the override triangle). The paper notes this step runs sequentially
// and is comparatively slow; it happens once per top alignment.
//
// The walk is the full-matrix walk, without the full matrix. A score-only
// i32 pass over the rectangle (row_kernel.hpp) keeps two rows and saves the
// (H, MaxY) state of every s-th row, s = ceil(sqrt(2 * rows)). Walking back,
// a segment of s rows is recomputed from its checkpoint when the walk first
// enters it, over the columns up to the walk's current one only. That is
// exact because no cell depends on columns to its right and the walk never
// moves down or right. Scratch is O(sqrt(rows) * cols): about 26 MiB for the
// middle rectangle at the paper's m = 34,350, against 1.1 GiB for the
// full matrix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "align/types.hpp"

namespace repro::align {

/// Best end cell of a bottom row under shadow rejection (Appendix A): a cell
/// is valid iff its realigned value equals the stored first-alignment value;
/// an empty `original` marks every cell valid. Ties break to the smallest x.
struct BestEnd {
  Score score = 0;
  int end_x = 0;  ///< 1-based bottom-row column; 0 when no valid cell exists
};

BestEnd find_best_end(std::span<const Score> row,
                      std::span<const std::int16_t> original);

/// Overload for freshly recomputed (32-bit) original rows — the Appendix-A
/// low-memory mode recomputes originals on demand instead of archiving them.
BestEnd find_best_end(std::span<const Score> row,
                      std::span<const Score> original);

/// No validity filter (every cell is a legal end).
BestEnd find_best_end(std::span<const Score> row);

/// A reconstructed local alignment of rectangle r.
struct Traceback {
  int r = 0;
  Score score = 0;
  int end_x = 0;  ///< 1-based bottom-row column the walk started from
  /// Aligned residue pairs as global positions (i, j), ascending in both
  /// components. Every cell on the path aligns exactly one pair (gaps skip
  /// positions between consecutive pairs).
  std::vector<std::pair<int, int>> pairs;
};

/// Recomputes rectangle job.r0 under job.overrides, selects the best valid
/// end cell (see find_best_end) and walks it back.
/// Deterministic move preference at equal score: diagonal, then the shortest
/// horizontal gap, then the shortest vertical gap.
/// Requires job.count == 1 and a positive best valid score.
Traceback traceback_best(const GroupJob& job,
                         std::span<const std::int16_t> original);

/// Overload for recomputed 32-bit original rows (low-memory mode).
Traceback traceback_best(const GroupJob& job, std::span<const Score> original);

/// No validity filter.
Traceback traceback_best(const GroupJob& job);

/// How traceback_best partitions rectangle job.r0.
struct TracebackPlan {
  int stride = 1;                 ///< rows per segment and between checkpoints
  std::size_t scratch_bytes = 0;  ///< peak scratch, profiles included
};

TracebackPlan traceback_plan(const GroupJob& job);

}  // namespace repro::align
