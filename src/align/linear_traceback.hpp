// Linear-memory traceback.
//
// The paper (§2.1): "Several memory-efficient algorithms exist that do
// perform a traceback using only a linear amount of memory (at the expense
// of extra computations), but these are not covered here." This module
// covers them: a full-matrix traceback allocates rows x cols Scores —
// 1.1 GiB for the middle rectangle at the paper's m = 34,350 — and the
// checkpointed traceback_best still O(sqrt(rows) * cols), while this
// implementation needs O(rows + cols):
//
//   1. a forward score-only pass (the row kernel traceback_best sweeps
//      with) finds the best valid end cell exactly as traceback_best does
//      (shadow rejection included);
//   2. a reverse score-only pass from that end cell finds the local
//      alignment's start cell;
//   3. a Myers–Miller divide-and-conquer *global* alignment of the spanned
//      subrectangle reconstructs the pairs; overridden pairs are forbidden
//      with -inf exchange scores, which preserves path feasibility exactly.
//
// The reduction is sound: the optimal local alignment ending at the chosen
// cell is a global alignment of its own span, and no global path of that
// span can score higher (it would contradict the local DP value), nor can a
// co-optimal global path start or end with a gap (trimming it would beat
// the local optimum).
//
// Determinism caveat: scores, end cells, validity and override avoidance
// match traceback_best exactly; among *co-optimal paths* the
// divide-and-conquer walk may pick a different (equally valid) one, so a
// finder using this traceback is internally deterministic but not
// byte-identical to the full-matrix finder beyond the first acceptance.
#pragma once

#include "align/traceback.hpp"

namespace repro::align {

Traceback traceback_best_linear(const GroupJob& job,
                                std::span<const std::int16_t> original);
Traceback traceback_best_linear(const GroupJob& job,
                                std::span<const Score> original);
Traceback traceback_best_linear(const GroupJob& job);

}  // namespace repro::align
