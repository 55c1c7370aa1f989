// Shared-memory dynamic speculative scheduler (paper §4.2).
//
// Workers share one core::Search under one lock; each owns an engine and a
// core::Sweeper, and all share one checkpoint cache. An idle
// worker accepts the queue head when the search's guard allows it, and
// otherwise realigns the best stale group not yet taken — speculatively,
// while an acceptance is under way. When the engines band, first sweeps go
// out as contiguous runs per worker (core/search.hpp). Sweeps and
// tracebacks run outside the lock: the triangle's bits are atomic, a sweep
// is labelled with the version it started at, and results labelled with a
// stale version are never accepted. Realignments that overlap an acceptance
// are kept — their scores are upper bounds for the grown triangle (the
// paper's "the work for the superfluous tasks is not wasted").
//
// The sequential finder is this loop with one worker on the calling thread,
// so every FinderOptions mode runs here, and the tops are byte-identical for
// every thread count.
#pragma once

#include <span>
#include <vector>

#include "align/engine.hpp"
#include "core/options.hpp"
#include "core/search.hpp"
#include "seq/scoring.hpp"
#include "seq/sequence.hpp"

namespace repro::parallel {

/// Creates one engine per worker thread (engines are not thread-safe).
using EngineFactory = align::EngineFactory;

struct ParallelOptions {
  int threads = 2;
  core::FinderOptions finder;
};

/// Runs the shared-memory finder. Produces exactly the same top alignments
/// as the sequential finder with an identical-lane engine.
core::FinderResult find_top_alignments_parallel(const seq::Sequence& s,
                                                const seq::Scoring& scoring,
                                                const ParallelOptions& options,
                                                const EngineFactory& factory);

/// Runs `search` to completion with one worker per sweeper: one worker runs
/// on the calling thread, more run on threads of their own. Rethrows the
/// first worker failure. Returns each worker's idle (waiting) seconds.
std::vector<double> run_workers(core::Search& search,
                                std::span<core::Sweeper* const> sweepers);

}  // namespace repro::parallel
