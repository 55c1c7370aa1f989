// Traceback properties: reconstructed pairs reproduce the score, respect
// overrides, end in the bottom row, and honour shadow rejection. The
// differential tests require the checkpointed traceback to return exactly
// the full-matrix oracle's (score, end_x, pairs).
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "align/row_kernel.hpp"
#include "align/traceback.hpp"
#include "core/verify.hpp"
#include "full_matrix_traceback.hpp"
#include "test_support.hpp"

namespace repro::align {
namespace {

using seq::Alphabet;
using seq::Scoring;

TEST(FindBestEnd, NoValidityFilter) {
  const std::vector<Score> row{0, 3, 7, 7, 2};
  const BestEnd end = find_best_end(row);
  EXPECT_EQ(end.score, 7);
  EXPECT_EQ(end.end_x, 3);  // tie broken to the smaller column
}

TEST(FindBestEnd, ShadowRejection) {
  const std::vector<Score> row{5, 9, 4};
  const std::vector<std::int16_t> original{5, 8, 4};  // col 2 changed: shadow
  const BestEnd end = find_best_end(row, original);
  EXPECT_EQ(end.score, 5);
  EXPECT_EQ(end.end_x, 1);
}

TEST(FindBestEnd, AllShadowed) {
  const std::vector<Score> row{5, 9};
  const std::vector<std::int16_t> original{4, 8};
  const BestEnd end = find_best_end(row, original);
  EXPECT_EQ(end.end_x, 0);  // no valid end at all
}

TEST(FindBestEnd, SizeMismatchThrows) {
  const std::vector<Score> row{5, 9};
  const std::vector<std::int16_t> original{4};
  EXPECT_THROW(find_best_end(row, original), std::logic_error);
}

TEST(Traceback, ScoreReproducibleFromPairs) {
  util::Rng rng(808);
  const Scoring scoring = Scoring::protein_default();
  for (int iter = 0; iter < 12; ++iter) {
    const auto g = seq::synthetic_titin(200, 9000 + iter);
    const auto s = g.sequence.subsequence(
        0, 60 + static_cast<int>(rng.below(100)));
    const int m = s.length();
    const int r = m / 4 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m / 2)));
    const Traceback tb = traceback_best(testing::make_job(s, r, scoring));
    ASSERT_GT(tb.score, 0);
    core::TopAlignment top;
    top.r = tb.r;
    top.score = tb.score;
    top.end_x = tb.end_x;
    top.pairs = tb.pairs;
    EXPECT_EQ(core::score_from_pairs(top, s, scoring), tb.score);
    // Ends in the bottom row.
    EXPECT_EQ(tb.pairs.back().first, r - 1);
    EXPECT_EQ(tb.pairs.back().second, r + tb.end_x - 1);
  }
}

TEST(Traceback, MatchesScoreOnlyKernel) {
  // The full-matrix recompute must find exactly the score-only kernel's best
  // valid end.
  const Scoring scoring = Scoring::paper_example();
  const auto engine = make_engine(EngineKind::kScalar);
  for (int iter = 0; iter < 10; ++iter) {
    const auto g = seq::synthetic_dna_tandem(120, 8, 6, 500 + iter);
    const int r = 40 + iter;
    const auto row = engine->align_one(testing::make_job(g.sequence, r, scoring));
    const BestEnd end = find_best_end(row);
    if (end.score <= 0) continue;
    const Traceback tb = traceback_best(testing::make_job(g.sequence, r, scoring));
    EXPECT_EQ(tb.score, end.score);
    EXPECT_EQ(tb.end_x, end.end_x);
  }
}

TEST(Traceback, NeverUsesOverriddenPairs) {
  util::Rng rng(909);
  const Scoring scoring = Scoring::paper_example();
  for (int iter = 0; iter < 10; ++iter) {
    const auto g = seq::synthetic_dna_tandem(100, 6, 8, 700 + iter);
    const int m = g.sequence.length();
    OverrideTriangle tri(m);
    const auto overridden = testing::random_overrides(m, 3 * m, rng, &tri);
    const int r = m / 2;
    const auto engine = make_engine(EngineKind::kScalar);
    const auto row =
        engine->align_one(testing::make_job(g.sequence, r, scoring, &tri));
    if (find_best_end(row).score <= 0) continue;
    const Traceback tb =
        traceback_best(testing::make_job(g.sequence, r, scoring, &tri));
    for (const auto& p : tb.pairs)
      EXPECT_FALSE(overridden.contains(p))
          << "pair (" << p.first << "," << p.second << ") is overridden";
  }
}

TEST(Traceback, ThrowsWithoutPositiveValidEnd) {
  const auto s = seq::Sequence::from_string("x", "AAAATTTT", Alphabet::dna());
  // Prefix AAAA vs suffix TTTT: no positive local score anywhere.
  const Scoring scoring = Scoring::paper_example();
  EXPECT_THROW(traceback_best(testing::make_job(s, 4, scoring)),
               std::logic_error);
}

TEST(Traceback, GapPreferenceIsDeterministic) {
  // Two equal-scoring paths: the walk prefers diagonal, then the shortest
  // horizontal gap. Run twice and expect identical pairs.
  const auto g = seq::synthetic_dna_tandem(90, 9, 6, 31);
  const Scoring scoring = Scoring::paper_example();
  const Traceback a = traceback_best(testing::make_job(g.sequence, 45, scoring));
  const Traceback b = traceback_best(testing::make_job(g.sequence, 45, scoring));
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.end_x, b.end_x);
}

/// Compares traceback_best with the full-matrix oracle on one job and
/// returns the oracle's result, or nullopt when both throw for want of a
/// positive valid end.
template <typename T>
std::optional<Traceback> expect_same(const GroupJob& job,
                                     std::span<const T> original,
                                     const std::string& what) {
  std::optional<Traceback> want;
  try {
    want = testing::full_matrix_traceback<T>(job, original);
  } catch (const std::logic_error&) {
    EXPECT_THROW(traceback_best(job, original), std::logic_error) << what;
    return std::nullopt;
  }
  const Traceback got = traceback_best(job, original);
  EXPECT_EQ(got.score, want->score) << what;
  EXPECT_EQ(got.end_x, want->end_x) << what;
  EXPECT_EQ(got.pairs, want->pairs) << what;
  return want;
}

std::optional<Traceback> expect_same(const GroupJob& job, const std::string& what) {
  return expect_same<Score>(job, {}, what);
}

/// Differential run over `rounds` acceptances on sequence s: each round
/// traces every split in `splits` with no validity filter and against the
/// first-alignment rows (empty triangle) as i16 and as i32 originals, then
/// accepts the best oracle top, whose pairs grow the triangle. Returns the
/// number of tracebacks that found a top.
int grow_and_compare(const seq::Sequence& s, const Scoring& scoring,
                     const std::vector<int>& splits, int rounds) {
  const int m = s.length();
  const auto engine = make_engine(EngineKind::kScalar);
  std::vector<std::vector<Score>> first;
  for (const int r : splits)
    first.push_back(engine->align_one(testing::make_job(s, r, scoring)));
  OverrideTriangle tri(m);
  int found = 0;
  for (int round = 0; round < rounds; ++round) {
    std::optional<Traceback> best;
    for (std::size_t k = 0; k < splits.size(); ++k) {
      const GroupJob job = testing::make_job(s, splits[k], scoring, &tri);
      const std::string what = "r=" + std::to_string(splits[k]) +
                               " round=" + std::to_string(round);
      const std::vector<std::int16_t> narrow(first[k].begin(), first[k].end());
      expect_same(job, what + " unfiltered");
      const auto tb = expect_same<std::int16_t>(job, narrow, what + " i16");
      expect_same<Score>(job, first[k], what + " i32");
      if (tb && (!best || tb->score > best->score)) best = tb;
      found += tb ? 1 : 0;
    }
    if (!best) break;
    for (const auto& [i, j] : best->pairs) tri.set(i, j);
  }
  return found;
}

/// Every split of s, or every `step`-th one.
std::vector<int> all_splits(const seq::Sequence& s, int step = 1) {
  std::vector<int> splits;
  for (int r = 1; r < s.length(); r += step) splits.push_back(r);
  return splits;
}

TEST(CheckpointedTraceback, MatchesFullMatrixOnRandomDna) {
  const Scoring scoring = Scoring::paper_example();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto s = seq::random_sequence(Alphabet::dna(),
                                        60 + 37 * static_cast<int>(seed), seed);
    EXPECT_GT(grow_and_compare(s, scoring, all_splits(s, 3), 6), 0);
  }
}

TEST(CheckpointedTraceback, MatchesFullMatrixOnProtein) {
  const Scoring scoring = Scoring::protein_default();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto s = seq::synthetic_titin(180 + 40 * static_cast<int>(seed),
                                        3000 + seed).sequence;
    EXPECT_GT(grow_and_compare(s, scoring, all_splits(s, 5), 8), 0);
    const auto noise = seq::random_sequence(Alphabet::protein(), 150, 70 + seed);
    grow_and_compare(noise, scoring, all_splits(noise, 4), 4);
  }
  // The middle rectangle of a longer titin: a walk over about 20 segments.
  const auto big = seq::synthetic_titin(1500, 99).sequence;
  EXPECT_TRUE(
      expect_same(testing::make_job(big, 750, scoring), "r=750").has_value());
}

TEST(CheckpointedTraceback, MatchesFullMatrixOnTieHeavyInputs) {
  // A W homopolymer and tiled repetitive oligos (gmap's repetitive.c list):
  // many co-optimal paths, so every tie-break of the walk is exercised.
  const Scoring protein = Scoring::protein_default();
  const auto w = seq::Sequence::from_string("W", std::string(90, 'W'),
                                            Alphabet::protein());
  EXPECT_GT(grow_and_compare(w, protein, all_splits(w), 5), 0);
  const Scoring dna = Scoring::paper_example();
  for (const char* oligo : {"AAAAAA", "ACACAC", "AGAGAG", "AACAAC", "ACGACG",
                            "ATATAT", "CAGCAG", "CCGCCG", "TTTTTT"}) {
    std::string tiled;
    while (tiled.size() < 84) tiled += oligo;
    const auto s = seq::Sequence::from_string(oligo, tiled, Alphabet::dna());
    EXPECT_GT(grow_and_compare(s, dna, all_splits(s), 5), 0) << oligo;
  }
}

TEST(CheckpointedTraceback, SegmentEdges) {
  const Scoring scoring = Scoring::paper_example();
  const auto s = seq::random_sequence(Alphabet::dna(), 400, 99);
  // r = 1 (a single row, below one segment) and splits that are multiples
  // of their own segment height (r = 2k^2 gives s = 2k).
  for (const int r : {1, 2, 8, 18, 32, 50, 72, 98, 128, 162, 200}) {
    const GroupJob job = testing::make_job(s, r, scoring);
    if (r > 1) {
      EXPECT_EQ(r % traceback_plan(job).stride, 0) << "r=" << r;
    }
    expect_same(job, "r=" + std::to_string(r));
  }
}

TEST(CheckpointedTraceback, ChainStartsOnCheckpointRow) {
  // Prefix A^29 + M, suffix T^9 + M + T^9 with M over {C, G}: the only
  // positive alignment is M against itself, starting on row 30 = 3 * s.
  const std::string motif = "CGGCGCCGCGGCCGCGGCGCC";
  const auto s = seq::Sequence::from_string(
      "x", std::string(29, 'A') + motif + std::string(9, 'T') + motif +
               std::string(9, 'T'),
      Alphabet::dna());
  const Scoring scoring = Scoring::paper_example();
  const GroupJob job = testing::make_job(s, 50, scoring);
  ASSERT_EQ(traceback_plan(job).stride, 10);
  const auto tb = expect_same(job, "checkpoint start");
  ASSERT_TRUE(tb.has_value());
  EXPECT_EQ(tb->pairs.front().first + 1, 30);  // DP row of the first pair
  EXPECT_EQ(tb->pairs.size(), motif.size());
}

TEST(CheckpointedTraceback, VerticalGapSpansSegments) {
  // Prefix A^10 C^20 A^30 G^10, suffix T^10 C^20 G^10 T^10: the best end
  // aligns the C runs, skips the 30 A rows in one vertical gap and aligns
  // the G runs, so the walk crosses at least two checkpoint rows in a gap.
  const auto s = seq::Sequence::from_string(
      "x",
      std::string(10, 'A') + std::string(20, 'C') + std::string(30, 'A') +
          std::string(10, 'G') + std::string(10, 'T') + std::string(20, 'C') +
          std::string(10, 'G') + std::string(10, 'T'),
      Alphabet::dna());
  const Scoring scoring = Scoring::paper_example();
  const GroupJob job = testing::make_job(s, 70, scoring);
  const int stride = traceback_plan(job).stride;
  const auto tb = expect_same(job, "vertical gap");
  ASSERT_TRUE(tb.has_value());
  int widest = 0;
  for (std::size_t k = 1; k < tb->pairs.size(); ++k) {
    const auto [i0, j0] = tb->pairs[k - 1];
    const auto [i1, j1] = tb->pairs[k];
    if (j1 == j0 + 1) widest = std::max(widest, i1 - i0 - 1);
  }
  EXPECT_GE(widest, 2 * stride);
}

TEST(CheckpointedTraceback, EndsInFirstColumn) {
  // Prefix TTTTA, suffix AGGGG: the only positive cell pairs the last
  // prefix residue with the first suffix residue.
  const auto s = seq::Sequence::from_string("x", "TTTTAAGGGG", Alphabet::dna());
  const Scoring scoring = Scoring::paper_example();
  const auto tb = expect_same(testing::make_job(s, 5, scoring), "column 1");
  ASSERT_TRUE(tb.has_value());
  EXPECT_EQ(tb->end_x, 1);
  EXPECT_EQ(tb->pairs, (std::vector<std::pair<int, int>>{{4, 5}}));
}

#if REPRO_ENABLE_AVX2
TEST(TracebackRowKernel, Avx2MatchesPortable) {
  // The dispatched traceback runs the AVX2 instantiation on this host; the
  // portable one must give the same H and MaxY on every real column.
  if (!avx2_available()) GTEST_SKIP() << "no AVX2";
  util::Rng rng(4242);
  for (const int width : {1, 7, 8, 9, 63, 64, 65, 200}) {
    const std::size_t size = static_cast<std::size_t>(width + 7) / 8 * 8 + 2;
    std::vector<Score> prev(size, 0);
    std::vector<Score> profile(size, 0);
    std::vector<Score> max_y(size, kNegInf);
    prev[0] = kNegInf;
    for (int x = 1; x <= width; ++x) {
      prev[static_cast<std::size_t>(x) + 1] = static_cast<Score>(rng.below(60));
      profile[static_cast<std::size_t>(x) + 1] = static_cast<Score>(rng.range(-4, 11));
      if (rng.below(2) != 0)
        max_y[static_cast<std::size_t>(x) + 1] = static_cast<Score>(rng.range(-30, 40));
    }
    for (const auto& [open, ext] : {std::pair{10, 1}, std::pair{2, 1}, std::pair{0, 3}}) {
      std::vector<Score> my_portable = max_y;
      std::vector<Score> my_avx2 = max_y;
      std::vector<Score> cur_portable(size, 0);
      std::vector<Score> cur_avx2(size, 0);
      detail::dp_row<detail::ScalarRowOps>(prev.data() + 1, profile.data() + 1,
                                           my_portable.data() + 1,
                                           cur_portable.data() + 1, width, open, ext);
      detail::dp_row_avx2(prev.data() + 1, profile.data() + 1, my_avx2.data() + 1,
                          cur_avx2.data() + 1, width, open, ext);
      const auto real = [&](const std::vector<Score>& v) {
        return std::vector<Score>(v.begin() + 2, v.begin() + 2 + width);
      };
      EXPECT_EQ(real(cur_avx2), real(cur_portable)) << "width " << width;
      EXPECT_EQ(real(my_avx2), real(my_portable)) << "width " << width;
    }
  }
}
#endif

TEST(CheckpointedTraceback, PaperScaleScratchIsBounded) {
  // The middle rectangle at the paper's m = 34,350: the full matrix took
  // rows * cols * 4 bytes (1.1 GiB); the checkpointed walk stays under 64 MiB.
  const int m = 34350;
  const auto s = seq::synthetic_titin(m, 2003).sequence;
  const Scoring scoring = Scoring::protein_default();
  const TracebackPlan plan =
      traceback_plan(testing::make_job(s, m / 2, scoring));
  EXPECT_LE(plan.scratch_bytes, std::size_t{64} << 20);
  EXPECT_GT(std::size_t{m / 2} * (m - m / 2) * sizeof(Score),
            std::size_t{1} << 30);
}

}  // namespace
}  // namespace repro::align
