// Scalar kernel tests, anchored on the paper's running example (Fig. 2):
// local alignment of CTTACAGA and ATTGCGA under match +2 / mismatch -1 /
// gap open 2 / gap extend 1, best score 6.
#include <gtest/gtest.h>

#include "align/engine.hpp"
#include "align/engine_detail.hpp"
#include "align/traceback.hpp"
#include "core/top_alignment.hpp"
#include "test_support.hpp"

namespace repro::align {
namespace {

using seq::Alphabet;
using seq::Scoring;
using seq::Sequence;

/// Fig. 2 as a rectangle: vertical prefix ATTGCGA, horizontal suffix
/// CTTACAGA of the concatenated sequence, split at r = 7.
Sequence fig2_sequence() {
  return Sequence::from_string("fig2", "ATTGCGACTTACAGA", Alphabet::dna());
}

TEST(ScalarEngine, PaperFig2BottomRow) {
  const Sequence s = fig2_sequence();
  const Scoring scoring = Scoring::paper_example();
  const auto engine = make_engine(EngineKind::kScalar);
  const auto row = engine->align_one(testing::make_job(s, 7, scoring));
  // Bottom row of Fig. 2 (row "A"), hand-recomputed from Eq. 1 with the
  // paper's metric; the best score 6 sits on the final A-A match.
  const std::vector<Score> expected{0, 0, 0, 2, 0, 4, 3, 6};
  EXPECT_EQ(row, expected);
}

TEST(ScalarEngine, PaperFig2BestScoreIsSix) {
  const Sequence s = fig2_sequence();
  const auto engine = make_engine(EngineKind::kScalar);
  const Scoring scoring = Scoring::paper_example();
  const auto row = engine->align_one(testing::make_job(s, 7, scoring));
  const BestEnd end = find_best_end(row);
  EXPECT_EQ(end.score, 6);
  EXPECT_EQ(end.end_x, 8);  // ends on the final A-A match
}

TEST(ScalarEngine, PaperFig2Traceback) {
  const Sequence s = fig2_sequence();
  const Scoring scoring = Scoring::paper_example();
  const Traceback tb = traceback_best(testing::make_job(s, 7, scoring));
  EXPECT_EQ(tb.score, 6);
  // The paper's alignment:  TTACAGA  over  TTGC-GA.
  core::TopAlignment top;
  top.r = tb.r;
  top.score = tb.score;
  top.end_x = tb.end_x;
  top.pairs = tb.pairs;
  const std::string rendered = core::render(top, s);
  EXPECT_EQ(rendered, "TTGC-GA\n||.| ||\nTTACAGA\n");
  EXPECT_EQ(tb.pairs, (std::vector<std::pair<int, int>>{
                          {1, 8}, {2, 9}, {3, 10}, {4, 11}, {5, 13}, {6, 14}}));
}

TEST(ScalarEngine, MatchesBruteForceOnRandomDna) {
  util::Rng rng(101);
  const auto engine = make_engine(EngineKind::kScalar);
  const Scoring scoring = Scoring::paper_example();
  for (int iter = 0; iter < 20; ++iter) {
    const int m = 12 + static_cast<int>(rng.below(40));
    const auto s = seq::random_sequence(Alphabet::dna(), m, 1000 + iter);
    for (int r : {1, m / 3 + 1, m / 2, m - 1}) {
      const auto row = engine->align_one(testing::make_job(s, r, scoring));
      EXPECT_EQ(row, testing::reference_bottom_row(s, r, scoring))
          << "m=" << m << " r=" << r;
    }
  }
}

TEST(ScalarEngine, MatchesBruteForceOnRandomProtein) {
  util::Rng rng(202);
  const auto engine = make_engine(EngineKind::kScalar);
  const Scoring scoring{seq::ScoreMatrix::blosum62(), seq::GapPenalty{11, 1}};
  for (int iter = 0; iter < 10; ++iter) {
    const int m = 20 + static_cast<int>(rng.below(50));
    const auto s = seq::random_sequence(Alphabet::protein(), m, 2000 + iter);
    const int r = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1)));
    const auto row = engine->align_one(testing::make_job(s, r, scoring));
    EXPECT_EQ(row, testing::reference_bottom_row(s, r, scoring));
  }
}

TEST(ScalarEngine, MatchesBruteForceWithOverrides) {
  util::Rng rng(303);
  const auto engine = make_engine(EngineKind::kScalar);
  const Scoring scoring = Scoring::paper_example();
  for (int iter = 0; iter < 15; ++iter) {
    const int m = 16 + static_cast<int>(rng.below(30));
    const auto g = seq::synthetic_dna_tandem(m, 5, 2, 3000 + iter);
    OverrideTriangle tri(m);
    const auto pairs = testing::random_overrides(m, m, rng, &tri);
    const int r = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1)));
    const auto row =
        engine->align_one(testing::make_job(g.sequence, r, scoring, &tri));
    EXPECT_EQ(row, testing::reference_bottom_row(g.sequence, r, scoring, pairs));
  }
}

TEST(ScalarEngine, ZeroScoresWhenEverythingOverridden) {
  const auto s = seq::random_sequence(Alphabet::dna(), 20, 5);
  OverrideTriangle tri(20);
  for (int i = 0; i < 19; ++i)
    for (int j = i + 1; j < 20; ++j) tri.set(i, j);
  const auto engine = make_engine(EngineKind::kScalar);
  const Scoring scoring = Scoring::paper_example();
  const auto row = engine->align_one(testing::make_job(s, 10, scoring, &tri));
  for (Score v : row) EXPECT_EQ(v, 0);
}

TEST(GeneralGapEngine, MatchesScalarForAffinePenalties) {
  // The old algorithm's O(n)/cell kernel must produce identical matrices
  // for affine penalties — this is what makes old == new testable.
  util::Rng rng(404);
  const auto scalar = make_engine(EngineKind::kScalar);
  const auto general = make_engine(EngineKind::kGeneralGap);
  const Scoring scoring{seq::ScoreMatrix::blosum62(), seq::GapPenalty{8, 2}};
  for (int iter = 0; iter < 10; ++iter) {
    const int m = 20 + static_cast<int>(rng.below(40));
    const auto g = seq::synthetic_titin(std::max(m, 200), 4000 + iter);
    const auto s = g.sequence.subsequence(0, m);
    const int r = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1)));
    EXPECT_EQ(scalar->align_one(testing::make_job(s, r, scoring)),
              general->align_one(testing::make_job(s, r, scoring)));
  }
}

TEST(StripedEngine, MatchesScalarAcrossStripeWidths) {
  util::Rng rng(505);
  const auto scalar = make_engine(EngineKind::kScalar);
  const Scoring scoring = Scoring::paper_example();
  for (int stripe : {1, 2, 7, 16, 64, -1}) {
    const auto striped = detail::make_scalar_striped_engine(stripe);
    for (int iter = 0; iter < 6; ++iter) {
      const int m = 20 + static_cast<int>(rng.below(60));
      const auto s = seq::random_sequence(Alphabet::dna(), m, 5000 + iter);
      const int r = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1)));
      EXPECT_EQ(striped->align_one(testing::make_job(s, r, scoring)),
                scalar->align_one(testing::make_job(s, r, scoring)))
          << "stripe=" << stripe << " m=" << m << " r=" << r;
    }
  }
}

TEST(StripedEngine, MatchesScalarWithOverrides) {
  util::Rng rng(606);
  const auto scalar = make_engine(EngineKind::kScalar);
  const auto striped = detail::make_scalar_striped_engine(8);
  const Scoring scoring = Scoring::paper_example();
  for (int iter = 0; iter < 8; ++iter) {
    const int m = 30 + static_cast<int>(rng.below(40));
    const auto s = seq::random_sequence(Alphabet::dna(), m, 6000 + iter);
    OverrideTriangle tri(m);
    testing::random_overrides(m, 2 * m, rng, &tri);
    const int r = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1)));
    EXPECT_EQ(striped->align_one(testing::make_job(s, r, scoring, &tri)),
              scalar->align_one(testing::make_job(s, r, scoring, &tri)));
  }
}

TEST(Engine, ValidatesJobs) {
  const auto s = seq::random_sequence(Alphabet::dna(), 10, 1);
  const Scoring scoring = Scoring::paper_example();
  const auto engine = make_engine(EngineKind::kScalar);
  EXPECT_THROW(engine->align_one(testing::make_job(s, 0, scoring)),
               std::logic_error);
  EXPECT_THROW(engine->align_one(testing::make_job(s, 10, scoring)),
               std::logic_error);
  auto job = testing::make_job(s, 3, scoring);
  job.scoring = nullptr;
  EXPECT_THROW(engine->align_one(job), std::logic_error);
}

TEST(Engine, CountsCells) {
  const auto s = seq::random_sequence(Alphabet::dna(), 30, 1);
  const Scoring scoring = Scoring::paper_example();
  const auto engine = make_engine(EngineKind::kScalar);
  engine->align_one(testing::make_job(s, 10, scoring));
  EXPECT_EQ(engine->cells_computed(), 10u * 20u);
  engine->reset_counters();
  EXPECT_EQ(engine->cells_computed(), 0u);
}

}  // namespace
}  // namespace repro::align
