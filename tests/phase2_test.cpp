// Phase-2 extensions: consensus/profile extraction (with the paper's
// future-work phase tuning) and empirical score significance.
#include <gtest/gtest.h>

#include "core/consensus.hpp"
#include "core/significance.hpp"
#include "core/top_alignment_finder.hpp"
#include "seq/generator.hpp"
#include "util/check.hpp"

namespace repro::core {
namespace {

using seq::Alphabet;
using seq::Scoring;

/// Detects repeats end-to-end and returns the best-supported region.
RepeatRegion main_region(const seq::Sequence& s, const Scoring& scoring,
                         int tops, align::Score min_score = 1) {
  FinderOptions opt;
  opt.num_top_alignments = tops;
  opt.min_score = min_score;
  const auto res = find_top_alignments(s, scoring, opt);
  const auto regions = delineate_repeats(s, res.tops);
  REPRO_CHECK_MSG(!regions.empty(), "no regions detected");
  const RepeatRegion* best = &regions.front();
  for (const auto& region : regions)
    if (region.support > best->support) best = &region;
  return *best;
}

TEST(Consensus, RecoversImplantedDnaUnit) {
  const int unit = 16;
  const auto g = seq::synthetic_dna_tandem(500, unit, 10, 5);
  const Scoring metric{seq::ScoreMatrix::dna(2, -3), seq::GapPenalty{5, 2}};
  const RepeatRegion region = main_region(g.sequence, metric, 12, 16);
  ASSERT_NEAR(region.period, unit, 2);

  const RepeatProfile profile = build_profile(g.sequence, region);
  ASSERT_EQ(profile.period, region.period);
  ASSERT_GE(profile.copy_begins.size(), 5u);
  EXPECT_EQ(static_cast<int>(profile.consensus.size()), profile.period);
  // Copies were implanted at 85 % conservation; the consensus should match
  // each copy clearly better than chance (25 % for DNA).
  EXPECT_GT(profile.mean_identity, 0.6);
  for (const double identity : profile.copy_identity) EXPECT_GT(identity, 0.4);
}

TEST(Consensus, PhaseTuningFindsImplantedBoundary) {
  // With no indels the segmentation should lock onto the exact implant
  // phase: the tuned first copy starts at the truth modulo the period.
  seq::RepeatSpec spec;
  spec.unit_length = 20;
  spec.copies = 8;
  spec.conservation = 0.95;
  spec.indel_rate = 0.0;
  const auto g = seq::make_repeat_sequence(Alphabet::dna(), 400, spec, 9);
  const Scoring metric{seq::ScoreMatrix::dna(2, -3), seq::GapPenalty{5, 2}};
  const RepeatRegion region = main_region(g.sequence, metric, 12, 16);
  ASSERT_NEAR(region.period, 20, 1);
  const RepeatProfile profile = build_profile(g.sequence, region);
  ASSERT_GT(profile.period, 0);
  const int truth = g.copies.front().begin;
  const int phase_error =
      std::abs(profile.begin - truth) % profile.period;
  EXPECT_TRUE(phase_error <= 2 || phase_error >= profile.period - 2)
      << "tuned begin " << profile.begin << " vs truth " << truth;
  // And the consensus at the tuned phase matches the implanted unit nearly
  // perfectly (95 % conservation).
  EXPECT_GT(profile.mean_identity, 0.85);
}

TEST(Consensus, DegenerateRegionsAreRejected) {
  const auto s = seq::random_sequence(Alphabet::dna(), 60, 3);
  RepeatRegion region;
  region.begin = 0;
  region.end = 25;
  region.period = 20;  // only one full copy fits
  EXPECT_EQ(build_profile(s, region).period, 0);
  region.period = 0;
  EXPECT_EQ(build_profile(s, region).period, 0);
}

TEST(Consensus, BuildProfilesSkipsDegenerates) {
  const auto g = seq::synthetic_dna_tandem(400, 15, 9, 4);
  const Scoring metric{seq::ScoreMatrix::dna(2, -3), seq::GapPenalty{5, 2}};
  FinderOptions opt;
  opt.num_top_alignments = 10;
  opt.min_score = 16;
  const auto res = find_top_alignments(g.sequence, metric, opt);
  auto regions = delineate_repeats(g.sequence, res.tops);
  RepeatRegion bogus;
  bogus.begin = 0;
  bogus.end = 10;
  bogus.period = 9;
  regions.push_back(bogus);
  const auto profiles = build_profiles(g.sequence, regions);
  for (const auto& profile : profiles) EXPECT_GT(profile.period, 0);
  EXPECT_EQ(profiles.size(), regions.size() - 1);
}

TEST(Significance, ShuffledPreservesComposition) {
  const auto s = seq::random_sequence(Alphabet::protein(), 300, 17);
  const auto t = shuffled(s, 1);
  ASSERT_EQ(t.length(), s.length());
  std::vector<int> ca(24, 0), cb(24, 0);
  for (int i = 0; i < s.length(); ++i) {
    ++ca[s[i]];
    ++cb[t[i]];
  }
  EXPECT_EQ(ca, cb);
  EXPECT_NE(s.to_string(), t.to_string());
  // Deterministic per seed.
  EXPECT_EQ(shuffled(s, 1).to_string(), t.to_string());
  EXPECT_NE(shuffled(s, 2).to_string(), t.to_string());
}

TEST(Significance, ThresholdSeparatesRepeatFromBackground) {
  // The threshold from shuffles must sit above the background's best
  // self-alignment but below the score of a genuine implanted repeat.
  const Scoring metric{seq::ScoreMatrix::dna(2, -3), seq::GapPenalty{5, 2}};
  const auto g = seq::synthetic_dna_tandem(500, 18, 10, 21);
  SignificanceOptions sopt;
  sopt.samples = 10;
  const align::Score threshold = score_threshold(g.sequence, metric, sopt);
  EXPECT_GT(threshold, 5);

  FinderOptions opt;
  opt.num_top_alignments = 1;
  const auto res = find_top_alignments(g.sequence, metric, opt);
  ASSERT_FALSE(res.tops.empty());
  EXPECT_GT(res.tops.front().score, threshold)
      << "implanted repeat should clear the null threshold";
}

TEST(Significance, LinearRegimeMetricGetsHighThreshold) {
  // Under the paper's toy metric (match +2 / mismatch -1 / gap 2+L) random
  // DNA self-alignments grow with length (linear regime); the empirical
  // threshold must reflect that, unlike a fixed small cutoff.
  const auto s = seq::random_sequence(Alphabet::dna(), 400, 31);
  SignificanceOptions sopt;
  sopt.samples = 5;
  const align::Score toy =
      score_threshold(s, Scoring::paper_example(), sopt);
  const align::Score strict = score_threshold(
      s, Scoring{seq::ScoreMatrix::dna(2, -3), seq::GapPenalty{5, 2}}, sopt);
  EXPECT_GT(toy, 2 * strict) << "toy=" << toy << " strict=" << strict;
}

TEST(Significance, OptionValidation) {
  const auto s = seq::random_sequence(Alphabet::dna(), 50, 1);
  SignificanceOptions bad;
  bad.samples = 0;
  EXPECT_THROW(score_threshold(s, Scoring::paper_example(), bad),
               std::logic_error);
  bad.samples = 2;
  bad.quantile = 0.0;
  EXPECT_THROW(score_threshold(s, Scoring::paper_example(), bad),
               std::logic_error);
}

}  // namespace
}  // namespace repro::core
