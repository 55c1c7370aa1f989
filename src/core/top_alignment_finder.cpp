#include "core/top_alignment_finder.hpp"

#include <optional>

#include "align/bottom_row_store.hpp"
#include "core/search.hpp"
#include "parallel/parallel_finder.hpp"

namespace repro::core {

FinderResult find_top_alignments(const seq::Sequence& s,
                                 const seq::Scoring& scoring,
                                 const FinderOptions& options,
                                 align::Engine& engine) {
  Search search(s, scoring, options, engine.lanes(), engine.bands(s.length()));
  std::optional<align::BottomRowStore> archive;
  if (options.memory == MemoryMode::kArchiveRows) archive.emplace(s.length());
  align::CheckpointCache cache(options.checkpoint_mem);
  Sweeper sweeper(search, engine, &cache,
                  RowSource{archive ? &*archive : nullptr, {}});
  Sweeper* const sweepers[] = {&sweeper};
  if (options.policy == RescanPolicy::kBestFirst) {
    parallel::run_workers(search, sweepers);
  } else {
    // The old algorithm's schedule: bring every rectangle up to date, then
    // accept the global best. Produces the same tops as best-first.
    while (!search.done()) {
      while (const auto o = search.begin_sweep_any()) {
        search.sync(sweeper);
        const auto scores = sweeper.sweep(o->r0, o->count, o->version);
        sweeper.commit();
        search.finish_sweep(*o, scores);
      }
      const auto a = search.begin_accept();
      if (!a) break;
      search.finish_accept(*a, sweeper.trace(search, *a));
    }
  }
  return search.finish(sweepers);
}

FinderResult find_top_alignments(const seq::Sequence& s,
                                 const seq::Scoring& scoring,
                                 const FinderOptions& options) {
  const auto engine = align::make_engine(align::EngineKind::kSimdAuto);
  return find_top_alignments(s, scoring, options, *engine);
}

}  // namespace repro::core
