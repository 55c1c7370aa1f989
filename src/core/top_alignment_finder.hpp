// The new sequential top-alignment algorithm (paper §3, Fig. 5, Appendix A).
//
// For a sequence S of length m, all m-1 prefix/suffix rectangles are first
// aligned score-only against the empty override triangle (their bottom rows
// are archived). Rectangles are then repeatedly taken best-score-first:
//   * if the best rectangle's score is stale (older triangle), it is
//     realigned — its new score is the shadow-rejected maximum of its bottom
//     row — and requeued;
//   * if it is current, it is *accepted*: its alignment is traced back, its
//     pairs are added to the override triangle, and the search continues for
//     the next top alignment.
// Scores under an older triangle are upper bounds for newer triangles, so
// best-first ordering is exact, not heuristic in the lossy sense: it skips
// only realignments that provably cannot produce the next top alignment.
//
// The engine decides the SIMD group width: with an L-lane engine, rectangles
// are scheduled in fixed groups of L neighbouring splits (§4.1); the
// accepted top alignments are identical for every engine and group width.
#pragma once

#include "align/engine.hpp"
#include "core/options.hpp"
#include "seq/sequence.hpp"

namespace repro::core {

/// Runs the new algorithm with the given engine: the shared-memory loop
/// (parallel/parallel_finder.hpp) with one worker on the calling thread.
FinderResult find_top_alignments(const seq::Sequence& s,
                                 const seq::Scoring& scoring,
                                 const FinderOptions& options,
                                 align::Engine& engine);

/// Convenience overload using the default engine (EngineKind::kSimdAuto).
FinderResult find_top_alignments(const seq::Sequence& s,
                                 const seq::Scoring& scoring,
                                 const FinderOptions& options = {});

}  // namespace repro::core
