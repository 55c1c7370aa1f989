// Waterman–Eggert baseline: K-best nonoverlapping pair alignments (the
// cited predecessor of the paper's override machinery).
#include <gtest/gtest.h>

#include <set>

#include "align/engine.hpp"
#include "core/waterman_eggert.hpp"
#include "seq/generator.hpp"

namespace repro::core {
namespace {

using seq::Alphabet;
using seq::Scoring;
using seq::Sequence;

TEST(WatermanEggert, PaperExamplePair) {
  // The paper's §2.1 example: CTTACAGA vs ATTGCGA scores 6.
  const auto a = Sequence::from_string("a", "ATTGCGA", Alphabet::dna());
  const auto b = Sequence::from_string("b", "CTTACAGA", Alphabet::dna());
  const auto alignments = waterman_eggert(a, b, Scoring::paper_example(), 1);
  ASSERT_EQ(alignments.size(), 1u);
  EXPECT_EQ(alignments[0].score, 6);
  EXPECT_EQ(pair_score(alignments[0], a, b, Scoring::paper_example()), 6);
}

TEST(WatermanEggert, FindsBothCopies) {
  const auto a = Sequence::from_string("a", "ATGCATGC", Alphabet::dna());
  const auto b = Sequence::from_string("b", "ATGC", Alphabet::dna());
  const auto alignments = waterman_eggert(a, b, Scoring::paper_example(), 5);
  ASSERT_GE(alignments.size(), 2u);
  EXPECT_EQ(alignments[0].score, 8);  // first ATGC vs ATGC
  EXPECT_EQ(alignments[1].score, 8);  // second copy
  // Both use all four columns of b but different rows of a.
  EXPECT_NE(alignments[0].pairs.front().first, alignments[1].pairs.front().first);
}

TEST(WatermanEggert, AlignmentsNeverShareCells) {
  const auto ga = seq::synthetic_dna_tandem(120, 10, 5, 3);
  const auto gb = seq::synthetic_dna_tandem(100, 10, 4, 4);
  const auto alignments =
      waterman_eggert(ga.sequence, gb.sequence, Scoring::paper_example(), 10);
  std::set<std::pair<int, int>> used;
  for (const auto& alignment : alignments) {
    for (const auto& p : alignment.pairs)
      EXPECT_TRUE(used.insert(p).second)
          << "cell (" << p.first << "," << p.second << ") reused";
  }
}

TEST(WatermanEggert, ScoresNonincreasingAndReproducible) {
  const auto ga = seq::synthetic_titin(150, 11);
  const auto gb = seq::synthetic_titin(150, 12);
  const Scoring scoring = Scoring::protein_default();
  const auto alignments = waterman_eggert(ga.sequence, gb.sequence, scoring, 8);
  ASSERT_FALSE(alignments.empty());
  for (std::size_t k = 0; k < alignments.size(); ++k) {
    EXPECT_EQ(pair_score(alignments[k], ga.sequence, gb.sequence, scoring),
              alignments[k].score);
    if (k > 0) {
      EXPECT_LE(alignments[k].score, alignments[k - 1].score);
    }
  }
}

TEST(WatermanEggert, MinScoreStops) {
  const auto a = seq::random_sequence(Alphabet::dna(), 60, 5);
  const auto b = seq::random_sequence(Alphabet::dna(), 60, 6);
  const auto alignments = waterman_eggert(a, b, Scoring::paper_example(), 100, 12);
  for (const auto& alignment : alignments) EXPECT_GE(alignment.score, 12);
  EXPECT_LT(alignments.size(), 100u);
}

TEST(WatermanEggert, KZeroReturnsNothing) {
  const auto a = Sequence::from_string("a", "ACGT", Alphabet::dna());
  EXPECT_TRUE(waterman_eggert(a, a, Scoring::paper_example(), 0).empty());
}

TEST(WatermanEggert, FirstAlignmentMatchesSelfAlignmentMachinery) {
  // Aligning prefix vs suffix as an independent PAIR must reproduce the
  // rectangle machinery's first top alignment when that alignment ends in
  // the bottom row (which the best one always can, per Appendix A): compare
  // against the full self-alignment search.
  const auto g = seq::synthetic_dna_tandem(90, 9, 6, 8);
  const auto& s = g.sequence;
  const int r = 45;
  const auto prefix = s.subsequence(0, r);
  const auto suffix = s.subsequence(r, s.length());
  const auto pair =
      waterman_eggert(prefix, suffix, Scoring::paper_example(), 1);
  ASSERT_EQ(pair.size(), 1u);
  // The pair search is free to end anywhere, so its score can only be >=
  // the bottom-row-restricted rectangle score, and both are bounded by the
  // best over all rectangles.
  const auto engine = align::make_engine(align::EngineKind::kScalar);
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = nullptr;  // set below
  const Scoring scoring = Scoring::paper_example();
  job.scoring = &scoring;
  job.r0 = r;
  job.count = 1;
  std::vector<align::Score> row(static_cast<std::size_t>(s.length() - r));
  std::span<align::Score> out(row);
  engine->align(job, std::span<const std::span<align::Score>>(&out, 1));
  align::Score bottom_best = 0;
  for (align::Score v : row) bottom_best = std::max(bottom_best, v);
  EXPECT_GE(pair[0].score, bottom_best);
}

}  // namespace
}  // namespace repro::core
