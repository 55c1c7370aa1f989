// Checkpoint-resume realignment: resumed sweeps must be bit-identical to
// from-scratch sweeps (kernel level), the finder with the cache enabled must
// produce exactly the tops of a cache-disabled run (both memory modes, every
// engine), and the cache itself must honor its validity model and budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "align/bottom_row_store.hpp"
#include "align/checkpoint_cache.hpp"
#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "align/simd_engine_impl.hpp"
#include "core/search.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "parallel/parallel_finder.hpp"
#include "seq/generator.hpp"
#include "seq/scoring.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

using align::CheckpointCache;
using align::CheckpointRow;
using align::CheckpointSink;
using align::CheckpointView;
using align::PairDirtyIndex;
using align::Score;
using core::FinderOptions;

// ---------------------------------------------------------------------------
// PairDirtyIndex

TEST(PairDirtyIndex, EmptyHasNoDirtyRows) {
  const PairDirtyIndex idx;
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.min_dirty_row(1), PairDirtyIndex::kNoDirtyRow);
  EXPECT_EQ(idx.min_dirty_row(100), PairDirtyIndex::kNoDirtyRow);
}

TEST(PairDirtyIndex, MatchesBruteForceOnRandomPairLists) {
  util::Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const int m = 20 + static_cast<int>(rng.below(60));
    std::vector<std::pair<int, int>> pairs;
    const int n = 1 + static_cast<int>(rng.below(12));
    for (int t = 0; t < n; ++t) {
      const int j = 1 + static_cast<int>(rng.below(m - 1));
      const int i = static_cast<int>(rng.below(j));
      pairs.emplace_back(i, j);
    }
    const PairDirtyIndex idx{std::span<const std::pair<int, int>>(pairs)};
    for (int r0 = 1; r0 < m; ++r0) {
      int expect = PairDirtyIndex::kNoDirtyRow;
      for (const auto& [i, j] : pairs)
        if (j >= r0) expect = std::min(expect, i + 1);
      EXPECT_EQ(idx.min_dirty_row(r0), expect)
          << "trial " << trial << " r0=" << r0;
    }
  }
}

// ---------------------------------------------------------------------------
// CheckpointCache semantics

CheckpointSink make_sink(int stride, int top_row, std::size_t buf_bytes,
                         std::byte fill) {
  CheckpointSink sink;
  sink.stride = stride;
  sink.top_row = top_row;
  sink.lanes = 1;
  sink.elem_size = 4;
  sink.prepare(1, top_row, buf_bytes);
  for (int t = 0; t < sink.count; ++t) {
    auto& cr = sink.rows[static_cast<std::size_t>(t)];
    std::fill(cr.h.begin(), cr.h.end(), fill);
    std::fill(cr.max_y.begin(), cr.max_y.end(), fill);
  }
  return sink;
}

TEST(CheckpointCacheTest, FindReturnsDeepestRowWithinValidityLimits) {
  CheckpointCache cache(1 << 20);
  CheckpointRow buf;  // find() copies the resume row here
  auto sink = make_sink(4, 9, 16, std::byte{0x5a});  // rows 4, 8, 9
  cache.store(5, /*plain_class=*/true, 10, sink);

  const auto plain = cache.find(5, /*plain_sweep=*/true, 0, buf);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->row, 9);  // plain sweeps ignore the limit
  EXPECT_EQ(plain->lanes, 1);
  EXPECT_EQ(plain->elem_size, 4);
  EXPECT_EQ(plain->bytes, 16u);

  const auto clamped = cache.find(5, /*plain_sweep=*/false, 7, buf);
  ASSERT_TRUE(clamped.has_value());
  EXPECT_EQ(clamped->row, 4);  // deepest plain row <= the clean limit

  EXPECT_FALSE(cache.find(5, /*plain_sweep=*/false, 2, buf).has_value());
  EXPECT_FALSE(cache.find(7, /*plain_sweep=*/true, 0, buf).has_value());
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CheckpointCacheTest, InvalidateDropsOverriddenRowsButKeepsPlain) {
  CheckpointCache cache(1 << 20);
  CheckpointRow buf;
  auto plain_sink = make_sink(4, 9, 16, std::byte{1});
  cache.store(5, /*plain_class=*/true, 10, plain_sink);
  auto over_sink = make_sink(4, 9, 16, std::byte{2});
  cache.store(5, /*plain_class=*/false, 10, over_sink);

  // A pair at (i=5, j=6) dirties DP rows >= 6 of every group with r0 <= 6.
  const std::vector<std::pair<int, int>> pairs{{5, 6}};
  cache.invalidate(0,
                   PairDirtyIndex{std::span<const std::pair<int, int>>(pairs)});
  EXPECT_EQ(cache.stats().invalidated_rows, 2u);  // overridden rows 8 and 9

  const auto over = cache.find(5, /*plain_sweep=*/false,
                               std::numeric_limits<int>::max(), buf);
  ASSERT_TRUE(over.has_value());
  EXPECT_EQ(over->row, 9);  // plain row 9 beats surviving overridden row 4
  const auto plain = cache.find(5, /*plain_sweep=*/true, 0, buf);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->row, 9);  // plain entry untouched by invalidation
}

TEST(CheckpointCacheTest, TinyBudgetEvictsLowestPriorityEntry) {
  // Budget below a single row: every store evicts something, lowest priority
  // (the group's best score) first.
  CheckpointCache cache(1);
  auto a = make_sink(4, 9, 16, std::byte{1});
  cache.store(3, true, /*priority=*/50, a);
  EXPECT_EQ(cache.stats().evictions, 1u);  // only entry: evicted immediately
  EXPECT_EQ(cache.bytes(), 0u);

  CheckpointCache cache2(40);  // fits one 32-byte row, not two
  CheckpointRow buf;
  auto low = make_sink(4, 4, 16, std::byte{1});
  cache2.store(3, true, /*priority=*/10, low);
  auto high = make_sink(4, 4, 16, std::byte{2});
  cache2.store(9, true, /*priority=*/90, high);
  EXPECT_EQ(cache2.stats().evictions, 1u);
  EXPECT_FALSE(cache2.find(3, true, 0, buf).has_value());  // low priority
  EXPECT_TRUE(cache2.find(9, true, 0, buf).has_value());
}

TEST(CheckpointCacheTest, SameRowStoreRecyclesBytes) {
  CheckpointCache cache(1 << 20);
  CheckpointRow buf;
  auto sink = make_sink(4, 9, 16, std::byte{1});
  cache.store(5, true, 10, sink);
  const std::size_t bytes_once = cache.bytes();
  auto again = make_sink(4, 9, 16, std::byte{2});
  cache.store(5, true, 11, again);
  EXPECT_EQ(cache.bytes(), bytes_once);  // same grid: no growth
  const auto view = cache.find(5, true, 0, buf);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->h[0], std::byte{2});  // newest sweep's state won
}

TEST(CheckpointCacheTest, StoreInOtherPrecisionReplacesEntry) {
  // Engines sharing a cache escalate u8 -> i16 independently, so a split's
  // rows may arrive in either layout; the entry keeps the newest.
  CheckpointCache cache(1 << 20);
  CheckpointRow buf;
  auto u8 = make_sink(4, 9, 16, std::byte{1});  // rows 4, 8, 9
  u8.elem_size = 1;
  cache.store(5, /*plain_class=*/false, 10, u8);
  auto i16 = make_sink(4, 8, 32, std::byte{2});  // rows 4, 8
  i16.elem_size = 2;
  cache.store(5, /*plain_class=*/false, 10, i16);
  const auto view = cache.find(5, /*plain_sweep=*/false, 0, buf);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->elem_size, 2);
  EXPECT_EQ(view->row, 8);  // u8 row 9 left with its layout
  EXPECT_EQ(cache.bytes(), 2 * 2 * 32u);
}

// ---------------------------------------------------------------------------
// Kernel-level resume equivalence (randomized triangle-growth fuzz)

/// Builds a fresh engine.
using MakeEngine = std::function<std::unique_ptr<align::Engine>()>;

MakeEngine of_kind(align::EngineKind kind) {
  return [kind] { return align::make_engine(kind); };
}

/// Every engine with checkpoint support: each kind as make_engine
/// dispatches it, plus the portable and SSE2 instantiations it passes over
/// on this host. The adaptive engines escalate to i16 on inputs past the u8
/// headroom and must still honor every checkpoint contract.
std::vector<MakeEngine> checkpoint_engines() {
  std::vector<MakeEngine> engines;
  for (const auto kind :
       {align::EngineKind::kScalar, align::EngineKind::kScalarStriped,
        align::EngineKind::kSimd4, align::EngineKind::kSimd8,
        align::EngineKind::kSimd16, align::EngineKind::kSimd8x32,
        align::EngineKind::kSimd4x32Generic, align::EngineKind::kSimdAuto})
    engines.push_back(of_kind(kind));
  for (const int lanes : {4, 8, 16})
    engines.push_back(
        [lanes] { return align::detail::make_simd_generic_engine(lanes); });
  engines.push_back(
      [] { return align::detail::make_simd32_generic_engine(8); });
  engines.push_back(align::detail::make_adaptive_generic_engine);
#if REPRO_HAVE_SSE2
  engines.push_back([] { return align::detail::make_simd_engine(16); });
#endif
  return engines;
}

/// The adaptive engines of every ISA, for in-range DNA workloads on which
/// every sweep stays in u8 lanes.
std::vector<MakeEngine> u8_engines() {
  std::vector<MakeEngine> engines{align::detail::make_adaptive_generic_engine,
                                  of_kind(align::EngineKind::kSimdAuto)};
#if REPRO_HAVE_SSE2
  engines.push_back(align::detail::make_adaptive_sse2_engine);
#endif
  return engines;
}

CheckpointView view_of(const CheckpointSink& sink, int index) {
  const CheckpointRow& cr = sink.rows[static_cast<std::size_t>(index)];
  CheckpointView view;
  view.row = cr.row;
  view.lanes = sink.lanes;
  view.elem_size = sink.elem_size;
  view.h = cr.h.data();
  view.max_y = cr.max_y.data();
  view.bytes = cr.h.size();
  return view;
}

/// Sweeps a group with `resume` (nullptr = from scratch), returning the
/// bottom rows; `sink` (optional) collects checkpoints.
std::vector<std::vector<Score>> sweep(align::Engine& engine,
                                      const seq::Sequence& s,
                                      const seq::Scoring& scoring,
                                      const align::OverrideTriangle* triangle,
                                      int r0, int count,
                                      const CheckpointView* resume,
                                      CheckpointSink* sink) {
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = &scoring;
  job.overrides = triangle;
  job.r0 = r0;
  job.count = count;
  job.resume = resume;
  job.sink = sink;
  const int m = s.length();
  std::vector<std::vector<Score>> rows(static_cast<std::size_t>(count));
  std::vector<std::span<Score>> outs(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    rows[static_cast<std::size_t>(k)].resize(
        static_cast<std::size_t>(m - (r0 + k)));
    outs[static_cast<std::size_t>(k)] = rows[static_cast<std::size_t>(k)];
  }
  engine.align(job, outs);
  return rows;
}

TEST(CheckpointKernel, ResumeFromEveryDepthMatchesScratch) {
  // A plain sweep emits checkpoints on a fine grid; resuming from each one
  // (empty triangle, so every depth is valid) must reproduce the scratch
  // bottom rows exactly.
  const auto g = seq::synthetic_titin(160, 7);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  for (const auto& make : checkpoint_engines()) {
    const auto engine = make();
    const int count = engine->lanes();
    const int r0 = 90;
    CheckpointSink sink;
    sink.stride = 11;
    sink.top_row = r0 - 1;
    const auto scratch =
        sweep(*engine, g.sequence, scoring, nullptr, r0, count, nullptr, &sink);
    ASSERT_GT(sink.count, 1) << engine->name();
    for (int t = 0; t < sink.count; ++t) {
      const CheckpointView view = view_of(sink, t);
      const auto resumed = sweep(*engine, g.sequence, scoring, nullptr, r0,
                                 count, &view, nullptr);
      EXPECT_EQ(resumed, scratch)
          << engine->name() << " resumed from row " << view.row;
    }
  }
}

TEST(CheckpointKernel, EmissionAndResumeParityAcrossRowPairs) {
  // The kernel sweeps rows above r0 in pairs, except that a checkpoint row
  // is never the upper row of a pair. Strides 1-3 put emission on every
  // row, on even rows, and on every third row (odd and even), which shifts
  // the pairing; resuming from each emitted row then starts the pairs on
  // odd and on even rows. Overrides sit in every row.
  const auto g = seq::synthetic_dna_tandem(150, 9, 5, 41);
  const seq::Scoring scoring = seq::Scoring::paper_example();
  ASSERT_TRUE(align::precision_fits(align::Precision::kI8,
                                    g.sequence.length(), scoring));
  align::OverrideTriangle triangle(g.sequence.length());
  util::Rng rng(4242);
  for (int t = 0; t < 200; ++t) {
    const int j = 1 + static_cast<int>(rng.below(
                          static_cast<std::uint64_t>(g.sequence.length() - 1)));
    triangle.set(static_cast<int>(rng.below(static_cast<std::uint64_t>(j))), j);
  }
  auto engines = checkpoint_engines();
  for (const auto& make : u8_engines()) engines.push_back(make);
  for (const int stripe : {1, 5})
    engines.push_back(
        [stripe] { return align::detail::make_scalar_striped_engine(stripe); });
  for (const auto& make : engines) {
    const auto engine = make();
    const int count = std::min(engine->lanes(), 7);
    const int r0 = 61;
    const auto scratch = sweep(*engine, g.sequence, scoring, &triangle, r0,
                               count, nullptr, nullptr);
    for (const int stride : {1, 2, 3}) {
      CheckpointSink sink;
      sink.stride = stride;
      sink.top_row = r0 - 1;
      EXPECT_EQ(sweep(*engine, g.sequence, scoring, &triangle, r0, count,
                      nullptr, &sink),
                scratch)
          << engine->name() << " stride " << stride;
      if (!engine->supports_checkpoints()) continue;
      ASSERT_GT(sink.count, 2) << engine->name();
      for (int t = 0; t < sink.count; ++t) {
        const CheckpointView view = view_of(sink, t);
        EXPECT_EQ(sweep(*engine, g.sequence, scoring, &triangle, r0, count,
                        &view, nullptr),
                  scratch)
            << engine->name() << " stride " << stride << " resumed from row "
            << view.row;
      }
    }
  }
}

TEST(CheckpointKernel, TriangleGrowthFuzzResumedEqualsScratch) {
  // Rounds of random triangle growth; each round realigns from scratch and
  // resumed from the deepest still-clean checkpoint of the previous round.
  const seq::Scoring protein = seq::Scoring::protein_default();
  const seq::Scoring dna = seq::Scoring::paper_example();
  for (const auto& make : checkpoint_engines()) {
    const auto engine = make();
    for (int seed = 0; seed < 6; ++seed) {
      util::Rng rng(900 + static_cast<std::uint64_t>(seed));
      const bool use_dna = rng.chance(0.5);
      const int m = 100 + static_cast<int>(rng.below(50));
      const seq::Sequence s =
          use_dna ? seq::synthetic_dna_tandem(m, 9, 5,
                                              100 + static_cast<std::uint64_t>(seed))
                        .sequence
                  : seq::synthetic_titin(m, 200 + static_cast<std::uint64_t>(seed))
                        .sequence;
      const seq::Scoring& scoring = use_dna ? dna : protein;
      const int count = engine->lanes();
      const int r0 =
          2 + static_cast<int>(rng.below(
                  static_cast<std::uint64_t>(std::max(1, m - count - 3))));
      align::OverrideTriangle triangle(m);

      CheckpointSink staged;  // plays the cache: last scratch sweep's rows
      staged.stride = 1 + static_cast<int>(rng.below(9));
      staged.top_row = r0 - 1;
      sweep(*engine, s, scoring, &triangle, r0, count, nullptr, &staged);

      for (int round = 0; round < 4; ++round) {
        // Grow the triangle with random pairs reaching this group (j >= r0).
        std::vector<std::pair<int, int>> pairs;
        const int n = 1 + static_cast<int>(rng.below(3));
        for (int t = 0; t < n; ++t) {
          const int j =
              r0 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - r0)));
          const int i = static_cast<int>(rng.below(static_cast<std::uint64_t>(j)));
          pairs.emplace_back(i, j);
          triangle.set(i, j);
        }
        const PairDirtyIndex dirty{
            std::span<const std::pair<int, int>>(pairs)};
        staged.drop_from(dirty.min_dirty_row(r0));  // invalidate stale rows

        CheckpointSink fresh;
        fresh.stride = staged.stride;
        fresh.top_row = r0 - 1;
        const auto scratch =
            sweep(*engine, s, scoring, &triangle, r0, count, nullptr, &fresh);
        if (staged.count > 0) {
          const CheckpointView view = view_of(staged, staged.count - 1);
          const auto resumed = sweep(*engine, s, scoring, &triangle, r0, count,
                                     &view, nullptr);
          EXPECT_EQ(resumed, scratch)
              << engine->name() << " seed " << seed << " round " << round
              << " resumed from row " << view.row;
        }
        staged = std::move(fresh);
      }
    }
  }
}

TEST(CheckpointKernel, U8ResumeFromEveryDepthMatchesScratch) {
  // Same contract as above for the u8 kernels, on a DNA workload that fits
  // their biased headroom (bound = m <= 252 for paper_example).
  const auto g = seq::synthetic_dna_tandem(200, 9, 5, 77);
  const seq::Scoring scoring = seq::Scoring::paper_example();
  ASSERT_TRUE(align::precision_fits(align::Precision::kI8,
                                    g.sequence.length(), scoring));
  for (const auto& make : u8_engines()) {
    const auto engine = make();
    const int count = engine->lanes();
    const int r0 = 110;
    CheckpointSink sink;
    sink.stride = 7;
    sink.top_row = r0 - 1;
    const auto scratch =
        sweep(*engine, g.sequence, scoring, nullptr, r0, count, nullptr, &sink);
    ASSERT_GT(sink.count, 1) << engine->name();
    EXPECT_EQ(sink.elem_size, 1) << engine->name();
    for (int t = 0; t < sink.count; ++t) {
      const CheckpointView view = view_of(sink, t);
      const auto resumed = sweep(*engine, g.sequence, scoring, nullptr, r0,
                                 count, &view, nullptr);
      EXPECT_EQ(resumed, scratch)
          << engine->name() << " resumed from row " << view.row;
    }
  }
}

TEST(CheckpointKernel, U8TriangleGrowthFuzzResumedEqualsScratch) {
  // Randomized triangle growth for the u8 kernels (DNA only, in-range);
  // override growth only lowers DP values, so clean u8 sweeps stay clean.
  const seq::Scoring dna = seq::Scoring::paper_example();
  for (const auto& make : u8_engines()) {
    const auto engine = make();
    for (int seed = 0; seed < 4; ++seed) {
      util::Rng rng(3100 + static_cast<std::uint64_t>(seed));
      const int m = 100 + static_cast<int>(rng.below(50));
      const seq::Sequence s =
          seq::synthetic_dna_tandem(m, 9, 5,
                                    600 + static_cast<std::uint64_t>(seed))
              .sequence;
      const int count = engine->lanes();
      const int r0 =
          2 + static_cast<int>(rng.below(
                  static_cast<std::uint64_t>(std::max(1, m - count - 3))));
      align::OverrideTriangle triangle(m);

      CheckpointSink staged;
      staged.stride = 1 + static_cast<int>(rng.below(9));
      staged.top_row = r0 - 1;
      sweep(*engine, s, dna, &triangle, r0, count, nullptr, &staged);

      for (int round = 0; round < 4; ++round) {
        std::vector<std::pair<int, int>> pairs;
        const int n = 1 + static_cast<int>(rng.below(3));
        for (int t = 0; t < n; ++t) {
          const int j =
              r0 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - r0)));
          const int i = static_cast<int>(rng.below(static_cast<std::uint64_t>(j)));
          pairs.emplace_back(i, j);
          triangle.set(i, j);
        }
        const PairDirtyIndex dirty{
            std::span<const std::pair<int, int>>(pairs)};
        staged.drop_from(dirty.min_dirty_row(r0));

        CheckpointSink fresh;
        fresh.stride = staged.stride;
        fresh.top_row = r0 - 1;
        const auto scratch =
            sweep(*engine, s, dna, &triangle, r0, count, nullptr, &fresh);
        if (staged.count > 0) {
          const CheckpointView view = view_of(staged, staged.count - 1);
          const auto resumed =
              sweep(*engine, s, dna, &triangle, r0, count, &view, nullptr);
          EXPECT_EQ(resumed, scratch)
              << engine->name() << " seed " << seed << " round " << round
              << " resumed from row " << view.row;
        }
        staged = std::move(fresh);
      }
    }
    EXPECT_EQ(engine->precision_stats().i16_sweeps, 0u) << engine->name();
  }
}

// ---------------------------------------------------------------------------
// Finder-level equivalence: cache on vs off, both memory modes, all engines

TEST(CheckpointFinder, CacheOnMatchesCacheOffAcrossEnginesAndMemoryModes) {
  const auto g = seq::synthetic_titin(260, 22);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  for (const auto& make : checkpoint_engines()) {
    for (const auto memory :
         {core::MemoryMode::kArchiveRows, core::MemoryMode::kRecomputeRows}) {
      FinderOptions off;
      off.num_top_alignments = 8;
      off.memory = memory;
      off.checkpoint_mem = 0;
      FinderOptions on = off;
      on.checkpoint_mem = FinderOptions{}.checkpoint_mem;
      const auto e1 = make();
      const auto e2 = make();
      const auto a = find_top_alignments(g.sequence, scoring, off, *e1);
      const auto b = find_top_alignments(g.sequence, scoring, on, *e2);
      std::string diff;
      EXPECT_TRUE(core::same_tops(a.tops, b.tops, &diff))
          << e1->name() << " memory mode "
          << (memory == core::MemoryMode::kArchiveRows ? "archive" : "recompute")
          << ": " << diff;
      if (b.stats.realignments > 0) {  // every realignment did a lookup
        EXPECT_GT(b.stats.ckpt_hits + b.stats.ckpt_misses, 0u)
            << e1->name();
      }
      EXPECT_EQ(a.stats.ckpt_hits, 0u);
      EXPECT_EQ(a.stats.rows_skipped, 0u);
    }
  }
}

TEST(CheckpointFinder, ResumeActuallySkipsRowsOnRepeatDenseInput) {
  const auto g = seq::synthetic_titin(300, 31);
  FinderOptions opt;
  opt.num_top_alignments = 10;
  const auto engine = align::make_engine(align::EngineKind::kScalar);
  const auto res =
      find_top_alignments(g.sequence, seq::Scoring::protein_default(), opt,
                          *engine);
  EXPECT_GT(res.stats.ckpt_hits, 0u);
  EXPECT_GT(res.stats.rows_skipped, 0u);
  EXPECT_GT(res.stats.rows_swept, res.stats.rows_skipped);
}

TEST(CheckpointFinder, OneRowBudgetStillProducesIdenticalTops) {
  // A budget below a single checkpoint row forces an eviction on every
  // store; results must not change, and the eviction counter must show it.
  const auto g = seq::synthetic_titin(220, 13);
  FinderOptions off;
  off.num_top_alignments = 8;
  off.checkpoint_mem = 0;
  FinderOptions tiny = off;
  tiny.checkpoint_mem = 1;
  const auto e1 = align::make_engine(align::EngineKind::kSimd8);
  const auto e2 = align::make_engine(align::EngineKind::kSimd8);
  const auto a = find_top_alignments(g.sequence,
                                     seq::Scoring::protein_default(), off, *e1);
  const auto b = find_top_alignments(g.sequence,
                                     seq::Scoring::protein_default(), tiny, *e2);
  std::string diff;
  EXPECT_TRUE(core::same_tops(a.tops, b.tops, &diff)) << diff;
  EXPECT_GT(b.stats.ckpt_evictions, 0u);
  EXPECT_EQ(b.stats.ckpt_hits, 0u);  // nothing survives a 1-byte budget

  // Four workers share the one budget.
  parallel::ParallelOptions popt;
  popt.threads = 4;
  popt.finder = tiny;
  const auto par = parallel::find_top_alignments_parallel(
      g.sequence, seq::Scoring::protein_default(), popt,
      align::engine_factory(align::EngineKind::kSimd8));
  EXPECT_TRUE(core::same_tops(a.tops, par.tops, &diff)) << diff;
  EXPECT_GT(par.stats.ckpt_evictions, 0u);
  EXPECT_EQ(par.stats.ckpt_hits, 0u);
  EXPECT_GT(par.stats.ckpt_misses, 0u);
}

// ---------------------------------------------------------------------------
// One cache shared by two sweepers: a thread run's workers, driven in turn

TEST(SharedCheckpointCache, SweepersResumeFromEachOtherAndInvalidateOnce) {
  const auto g = seq::synthetic_titin(220, 41);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  const int m = g.sequence.length();
  const FinderOptions opt;  // checkpoints on
  align::OverrideTriangle triangle(m);
  align::BottomRowStore archive(m);
  CheckpointCache cache(FinderOptions{}.checkpoint_mem);
  const auto ea = align::make_engine(align::EngineKind::kScalar);
  const auto eb = align::make_engine(align::EngineKind::kScalar);
  const auto ef = align::make_engine(align::EngineKind::kScalar);
  core::Sweeper a(g.sequence, scoring, opt, triangle, *ea, &cache,
                  core::RowSource{&archive, {}});
  core::Sweeper b(g.sequence, scoring, opt, triangle, *eb, &cache,
                  core::RowSource{&archive, {}});
  core::Sweeper fresh(g.sequence, scoring, opt, triangle, *ef,
                      /*cache=*/nullptr, core::RowSource{&archive, {}});
  const auto mark = [&](const std::vector<std::pair<int, int>>& pairs) {
    for (const auto& [i, j] : pairs) triangle.set(i, j);
    return PairDirtyIndex{std::span<const std::pair<int, int>>(pairs)};
  };
  CheckpointRow buf;

  for (int r = 1; r < m; ++r) {  // A takes every first alignment
    (void)a.sweep(r, 1, 0);
    a.commit();
  }
  const PairDirtyIndex d0 = mark({{40, 150}, {41, 151}, {42, 152}});
  a.invalidate(d0);
  b.invalidate(d0);

  // B realigns split 100 from A's plain rows above the first dirty row 41,
  // with the scores of a from-scratch sweep.
  const Score resumed = b.sweep(100, 1, 1)[0];
  b.commit();
  core::FinderStats bs;
  b.add_stats(bs);
  EXPECT_GT(bs.rows_skipped, 0u);
  EXPECT_LE(bs.rows_skipped, 40u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(resumed, fresh.sweep(100, 1, 1)[0]);
  EXPECT_TRUE(std::ranges::equal(b.row(0), fresh.row(0)));

  // Acceptance 1 dirties split 100 from row 71: the first sweeper to sync
  // drops B's overridden rows there, the second changes nothing.
  const PairDirtyIndex d1 = mark({{70, 120}, {71, 121}});
  a.invalidate(d1);
  const std::uint64_t dropped = cache.stats().invalidated_rows;
  EXPECT_GT(dropped, 0u);
  b.invalidate(d1);
  EXPECT_EQ(cache.stats().invalidated_rows, dropped);
  const auto kept = cache.find(100, /*plain_sweep=*/false, 0, buf);
  ASSERT_TRUE(kept.has_value());
  EXPECT_LT(kept->row, 71);

  // A's sweep of split 130 is labelled version 2; acceptance 2 (first
  // dirty row 91) lands before the commit and B applies it to the cache.
  // A's commit must still drop its own rows from row 91 on.
  (void)a.sweep(130, 1, 2);
  const PairDirtyIndex d2 = mark({{90, 135}});
  b.invalidate(d2);
  a.invalidate(d2);
  a.commit();
  const auto torn = cache.find(130, /*plain_sweep=*/false, 0, buf);
  ASSERT_TRUE(torn.has_value());
  EXPECT_LT(torn->row, 91);
  EXPECT_GT(torn->row, 40);  // rows above the cut were kept

  // The run's statistics count the shared cache once, not per sweeper.
  core::Search search(g.sequence, scoring, opt, /*lanes=*/1, /*runs=*/false);
  core::Sweeper* const sweepers[] = {&a, &b};
  const core::FinderResult res = search.finish(sweepers);
  EXPECT_EQ(res.stats.ckpt_hits, cache.stats().hits);
  EXPECT_EQ(res.stats.ckpt_misses, cache.stats().misses);
}

TEST(CheckpointFinder, LowMemoryUntouchedLaneSkipIsExactAndCounted) {
  // Interspersed repeats leave many rectangles untouched between
  // acceptances; in low-memory mode those groups are version-bumped without
  // any sweep, and the tops still match the checkpoint-off run.
  seq::RepeatSpec spec;
  spec.unit_length = 16;
  spec.copies = 5;
  spec.conservation = 0.6;
  spec.indel_rate = 0.02;
  spec.tandem = false;
  const auto g =
      seq::make_repeat_sequence(seq::Alphabet::protein(), 240, spec, 61);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  FinderOptions off;
  off.num_top_alignments = 8;
  off.memory = core::MemoryMode::kRecomputeRows;
  off.checkpoint_mem = 0;
  FinderOptions on = off;
  on.checkpoint_mem = FinderOptions{}.checkpoint_mem;
  const auto e1 = align::make_engine(align::EngineKind::kScalar);
  const auto e2 = align::make_engine(align::EngineKind::kScalar);
  const auto a = find_top_alignments(g.sequence, scoring, off, *e1);
  const auto b = find_top_alignments(g.sequence, scoring, on, *e2);
  std::string diff;
  EXPECT_TRUE(core::same_tops(a.tops, b.tops, &diff)) << diff;
  EXPECT_GT(b.stats.skipped_realignments, 0u);
  EXPECT_LT(b.stats.realignments, a.stats.realignments);
}

TEST(CheckpointFinder, ExhaustivePolicyAgreesWithCacheOn) {
  const auto g = seq::synthetic_titin(200, 5);
  FinderOptions best;
  best.num_top_alignments = 6;
  FinderOptions sweep_opt = best;
  sweep_opt.policy = core::RescanPolicy::kExhaustiveSweep;
  const auto e1 = align::make_engine(align::EngineKind::kScalar);
  const auto e2 = align::make_engine(align::EngineKind::kScalar);
  const auto a = find_top_alignments(g.sequence,
                                     seq::Scoring::protein_default(), best, *e1);
  const auto b = find_top_alignments(
      g.sequence, seq::Scoring::protein_default(), sweep_opt, *e2);
  std::string diff;
  EXPECT_TRUE(core::same_tops(a.tops, b.tops, &diff)) << diff;
}

TEST(CheckpointFinder, ParallelWorkersWithCachePartitionsMatchSequential) {
  const auto g = seq::synthetic_titin(260, 17);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  FinderOptions off;
  off.num_top_alignments = 8;
  off.checkpoint_mem = 0;
  const auto seq_engine = align::make_engine(align::EngineKind::kSimd8);
  const auto reference =
      find_top_alignments(g.sequence, scoring, off, *seq_engine);

  parallel::ParallelOptions popt;
  popt.threads = 3;
  popt.finder.num_top_alignments = 8;  // checkpoint cache on by default
  const auto par = parallel::find_top_alignments_parallel(
      g.sequence, scoring, popt,
      align::engine_factory(align::EngineKind::kSimd8));
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, par.tops, &diff)) << diff;
}

}  // namespace
}  // namespace repro
