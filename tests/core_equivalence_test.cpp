// The paper's central correctness claim: the new algorithm "computes exactly
// the same top alignments as the original algorithm" — and, in this
// implementation, for every engine, group width, and rescan policy.
#include <gtest/gtest.h>

#include "align/engine.hpp"
#include "align/engine_detail.hpp"
#include "core/old_finder.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "seq/generator.hpp"
#include "util/rng.hpp"

namespace repro::core {
namespace {

using seq::Scoring;

struct Case {
  std::string name;
  seq::Sequence sequence;
  Scoring scoring;
  int tops;
};

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  {
    auto g = seq::synthetic_dna_tandem(140, 12, 6, 21);
    cases.push_back({"dna_tandem", std::move(g.sequence),
                     Scoring::paper_example(), 8});
  }
  {
    auto g = seq::synthetic_titin(260, 22);
    cases.push_back({"titin_like", std::move(g.sequence),
                     Scoring::protein_default(), 6});
  }
  {
    seq::RepeatSpec spec;
    spec.unit_length = 18;
    spec.copies = 5;
    spec.conservation = 0.5;
    spec.indel_rate = 0.05;
    spec.tandem = false;
    auto g = seq::make_repeat_sequence(seq::Alphabet::protein(), 200, spec, 23);
    cases.push_back({"interspersed_protein", std::move(g.sequence),
                     Scoring{seq::ScoreMatrix::pam250(), seq::GapPenalty{8, 2}},
                     6});
  }
  {
    auto s = seq::random_sequence(seq::Alphabet::dna(), 120, 24);
    cases.push_back({"random_dna", std::move(s), Scoring::paper_example(), 5});
  }
  return cases;
}

class Equivalence : public ::testing::TestWithParam<int> {
 protected:
  static const std::vector<Case>& cases() {
    static const std::vector<Case> cs = make_cases();
    return cs;
  }
};

TEST_P(Equivalence, OldAlgorithmMatchesNew) {
  const Case& c = cases()[static_cast<std::size_t>(GetParam())];
  FinderOptions opt;
  opt.num_top_alignments = c.tops;
  const auto old_res = find_top_alignments_old(c.sequence, c.scoring, opt);
  const auto engine = align::make_engine(align::EngineKind::kScalar);
  const auto new_res = find_top_alignments(c.sequence, c.scoring, opt, *engine);
  validate_tops(new_res.tops, c.sequence, c.scoring);
  std::string diff;
  EXPECT_TRUE(same_tops(old_res.tops, new_res.tops, &diff)) << c.name << ": " << diff;
}

TEST_P(Equivalence, EveryEngineProducesIdenticalTops) {
  const Case& c = cases()[static_cast<std::size_t>(GetParam())];
  FinderOptions opt;
  opt.num_top_alignments = c.tops;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = find_top_alignments(c.sequence, c.scoring, opt, *scalar);

  std::vector<align::EngineFactory> engines;
  for (const auto kind :
       {align::EngineKind::kScalarStriped, align::EngineKind::kGeneralGap,
        align::EngineKind::kSimd4, align::EngineKind::kSimd8,
        align::EngineKind::kSimd16, align::EngineKind::kSimd8x32,
        align::EngineKind::kSimd4x32Generic, align::EngineKind::kSimdAuto})
    engines.push_back(align::engine_factory(kind));
  // The portable kernels, which make_engine passes over on an x86 host.
  for (const int lanes : {4, 8, 16})
    engines.push_back(
        [lanes] { return align::detail::make_simd_generic_engine(lanes); });
  engines.push_back([] { return align::detail::make_simd32_generic_engine(8); });
  engines.push_back([] { return align::detail::make_adaptive_generic_engine(); });

  for (const auto& make : engines) {
    const auto engine = make();
    const auto res = find_top_alignments(c.sequence, c.scoring, opt, *engine);
    std::string diff;
    EXPECT_TRUE(same_tops(reference.tops, res.tops, &diff))
        << c.name << " with " << engine->name() << ": " << diff;
  }
}

TEST_P(Equivalence, RescanPoliciesAgree) {
  const Case& c = cases()[static_cast<std::size_t>(GetParam())];
  FinderOptions best;
  best.num_top_alignments = c.tops;
  FinderOptions sweep = best;
  sweep.policy = RescanPolicy::kExhaustiveSweep;
  const auto e1 = align::make_engine(align::EngineKind::kScalar);
  const auto e2 = align::make_engine(align::EngineKind::kScalar);
  const auto a = find_top_alignments(c.sequence, c.scoring, best, *e1);
  const auto b = find_top_alignments(c.sequence, c.scoring, sweep, *e2);
  std::string diff;
  EXPECT_TRUE(same_tops(a.tops, b.tops, &diff)) << c.name << ": " << diff;
}

TEST_P(Equivalence, GroupedSweepAgreesWithGroupSizeOne) {
  // Group scheduling (SIMD lane grouping) must not change acceptance order
  // even under the exhaustive policy.
  const Case& c = cases()[static_cast<std::size_t>(GetParam())];
  FinderOptions opt;
  opt.num_top_alignments = c.tops;
  opt.policy = RescanPolicy::kExhaustiveSweep;
  const auto e1 = align::make_engine(align::EngineKind::kScalar);
  const auto e8 = align::make_engine(align::EngineKind::kSimd8);
  const auto a = find_top_alignments(c.sequence, c.scoring, opt, *e1);
  const auto b = find_top_alignments(c.sequence, c.scoring, opt, *e8);
  std::string diff;
  EXPECT_TRUE(same_tops(a.tops, b.tops, &diff)) << c.name << ": " << diff;
}

INSTANTIATE_TEST_SUITE_P(Cases, Equivalence, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return make_cases()[static_cast<std::size_t>(
                                                   info.param)]
                               .name;
                         });

TEST_P(Equivalence, LowMemoryModeMatchesArchiveMode) {
  // Appendix A: on-demand recomputation of original bottom rows (linear
  // memory) must not change any result — only add work.
  const Case& c = cases()[static_cast<std::size_t>(GetParam())];
  FinderOptions archive;
  archive.num_top_alignments = c.tops;
  // Disable checkpoint-resume on both sides so the cell-count bound below
  // measures the Appendix-A recompute overhead alone (checkpoint_test.cpp
  // covers the incremental paths of both memory modes).
  archive.checkpoint_mem = 0;
  FinderOptions low = archive;
  low.memory = MemoryMode::kRecomputeRows;
  const auto e1 = align::make_engine(align::EngineKind::kScalar);
  const auto e2 = align::make_engine(align::EngineKind::kScalar);
  const auto a = find_top_alignments(c.sequence, c.scoring, archive, *e1);
  const auto b = find_top_alignments(c.sequence, c.scoring, low, *e2);
  std::string diff;
  EXPECT_TRUE(same_tops(a.tops, b.tops, &diff)) << c.name << ": " << diff;
  // The recompute overhead exists but is bounded by one extra alignment per
  // realignment (plus one per acceptance).
  EXPECT_GT(b.stats.cells, a.stats.cells);
  EXPECT_LE(b.stats.cells, 2 * a.stats.cells + 1);
}

TEST(EquivalenceExtra, LowMemoryWorksWithSimdGroups) {
  const auto g = seq::synthetic_titin(250, 33);
  FinderOptions opt;
  opt.num_top_alignments = 8;
  opt.memory = MemoryMode::kRecomputeRows;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto simd = align::make_engine(align::EngineKind::kSimd8);
  FinderOptions archive;
  archive.num_top_alignments = 8;
  const auto a =
      find_top_alignments(g.sequence, Scoring::protein_default(), archive, *scalar);
  const auto b =
      find_top_alignments(g.sequence, Scoring::protein_default(), opt, *simd);
  std::string diff;
  EXPECT_TRUE(same_tops(a.tops, b.tops, &diff)) << diff;
}

class SeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweep, OldEqualsNewOnRandomInputs) {
  // Broad differential sweep: random repeat-bearing inputs with varying
  // alphabets, metrics and sizes — old O(n^4) and new O(n^3) algorithms must
  // agree exactly.
  const int seed = GetParam();
  util::Rng rng(40000 + static_cast<std::uint64_t>(seed));
  const bool dna = rng.chance(0.5);
  const int m = 60 + static_cast<int>(rng.below(80));
  seq::RepeatSpec spec;
  spec.unit_length = 8 + static_cast<int>(rng.below(20));
  spec.copies = 3 + static_cast<int>(rng.below(4));
  // Keep the implant within ~60 % of the sequence so every mode fits.
  spec.copies = std::max(
      2, std::min(spec.copies, (m * 6 / 10) / spec.unit_length));
  spec.conservation = 0.4 + 0.5 * rng.uniform();
  spec.indel_rate = 0.04 * rng.uniform();
  spec.tandem = rng.chance(0.7);
  const auto& alphabet = dna ? seq::Alphabet::dna() : seq::Alphabet::protein();
  const auto g = seq::make_repeat_sequence(
      alphabet, m, spec, 50000 + static_cast<std::uint64_t>(seed));
  const Scoring scoring =
      dna ? Scoring::paper_example()
          : Scoring{seq::ScoreMatrix::blosum50(),
                    seq::GapPenalty{6 + static_cast<int>(rng.below(8)),
                                    1 + static_cast<int>(rng.below(3))}};
  FinderOptions opt;
  opt.num_top_alignments = 4 + static_cast<int>(rng.below(5));

  const auto old_res = find_top_alignments_old(g.sequence, scoring, opt);
  const auto engine = align::make_engine(align::EngineKind::kSimd8);
  const auto new_res = find_top_alignments(g.sequence, scoring, opt, *engine);
  validate_tops(new_res.tops, g.sequence, scoring);
  std::string diff;
  EXPECT_TRUE(same_tops(old_res.tops, new_res.tops, &diff))
      << "seed " << seed << " (m=" << m << ", " << (dna ? "dna" : "protein")
      << "): " << diff;
}

INSTANTIATE_TEST_SUITE_P(Random, SeedSweep, ::testing::Range(0, 12));

TEST(EquivalenceExtra, SpeculativeLaneWorkDoesNotChangeResults) {
  // SIMD grouping performs speculative lane-mate realignments; results and
  // acceptance order must be identical to the scalar best-first run, and the
  // speculative count is visible in the stats.
  const auto g = seq::synthetic_titin(300, 31);
  FinderOptions opt;
  opt.num_top_alignments = 10;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto simd = align::make_engine(align::EngineKind::kSimd8);
  const auto a =
      find_top_alignments(g.sequence, Scoring::protein_default(), opt, *scalar);
  const auto b =
      find_top_alignments(g.sequence, Scoring::protein_default(), opt, *simd);
  std::string diff;
  EXPECT_TRUE(same_tops(a.tops, b.tops, &diff)) << diff;
  EXPECT_GT(b.stats.speculative + b.stats.realignments, 0u);
}

}  // namespace
}  // namespace repro::core
