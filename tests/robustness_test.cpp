// Robustness and pathological-input tests: degenerate sequences (massive
// tie-break stress), hostile file inputs, and extreme parameterisations.
#include <gtest/gtest.h>

#include <sstream>

#include "align/engine.hpp"
#include "core/old_finder.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "parallel/parallel_finder.hpp"
#include "seq/fasta.hpp"
#include "seq/generator.hpp"

namespace repro {
namespace {

using core::FinderOptions;
using seq::Alphabet;
using seq::Scoring;
using seq::Sequence;

TEST(Pathological, HomopolymerOldEqualsNew) {
  // A^40 self-aligns with astronomically many co-optimal alignments; the
  // deterministic tie-breaks must make old and new agree exactly anyway.
  const auto s = Sequence::from_string("polyA", std::string(40, 'A'),
                                       Alphabet::dna());
  FinderOptions opt;
  opt.num_top_alignments = 6;
  const auto old_res = core::find_top_alignments_old(s, Scoring::paper_example(), opt);
  const auto new_res = core::find_top_alignments(s, Scoring::paper_example(), opt);
  core::validate_tops(new_res.tops, s, Scoring::paper_example());
  std::string diff;
  EXPECT_TRUE(core::same_tops(old_res.tops, new_res.tops, &diff)) << diff;
  EXPECT_EQ(new_res.tops.size(), 6u);
}

TEST(Pathological, DinucleotideRepeatAllEnginesAgree) {
  const auto s = Sequence::from_string(
      "polyAT", "ATATATATATATATATATATATATATATATAT", Alphabet::dna());
  FinderOptions opt;
  opt.num_top_alignments = 5;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference =
      core::find_top_alignments(s, Scoring::paper_example(), opt, *scalar);
  for (const auto kind :
       {align::EngineKind::kSimd4, align::EngineKind::kSimd8,
        align::EngineKind::kGeneralGap, align::EngineKind::kScalarStriped}) {
    const auto engine = align::make_engine(kind);
    const auto res =
        core::find_top_alignments(s, Scoring::paper_example(), opt, *engine);
    std::string diff;
    EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
        << engine->name() << ": " << diff;
  }
}

TEST(Pathological, HomopolymerParallelDeterminism) {
  const auto s = Sequence::from_string("polyG", std::string(36, 'G'),
                                       Alphabet::dna());
  FinderOptions opt;
  opt.num_top_alignments = 4;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference =
      core::find_top_alignments(s, Scoring::paper_example(), opt, *scalar);
  parallel::ParallelOptions popt;
  popt.threads = 4;
  popt.finder = opt;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto res = parallel::find_top_alignments_parallel(
        s, Scoring::paper_example(), popt,
        align::engine_factory(align::EngineKind::kScalar));
    std::string diff;
    EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff)) << diff;
  }
}

TEST(Pathological, NoPositiveScoresAnywhere) {
  // Every residue occurs exactly once, so no residue pair can match and no
  // local alignment is ever positive under a match/mismatch metric.
  const auto s = Sequence::from_string("distinct", "ACGT", Alphabet::dna());
  FinderOptions opt;
  opt.num_top_alignments = 5;
  const auto res = core::find_top_alignments(s, Scoring::paper_example(), opt);
  EXPECT_TRUE(res.tops.empty());
  // The old algorithm agrees on emptiness.
  const auto old_res =
      core::find_top_alignments_old(s, Scoring::paper_example(), opt);
  EXPECT_TRUE(old_res.tops.empty());
}

TEST(Pathological, LengthTwoSequence) {
  const auto s = Sequence::from_string("aa", "AA", Alphabet::dna());
  FinderOptions opt;
  opt.num_top_alignments = 3;
  const auto res = core::find_top_alignments(s, Scoring::paper_example(), opt);
  ASSERT_EQ(res.tops.size(), 1u);
  EXPECT_EQ(res.tops[0].score, 2);
  EXPECT_EQ(res.tops[0].pairs,
            (std::vector<std::pair<int, int>>{{0, 1}}));
}

TEST(Pathological, SequenceOfUnknownResidues) {
  // All-N DNA scores mismatch even against itself: no alignments.
  const auto s = Sequence::from_string("ns", std::string(30, 'N'),
                                       Alphabet::dna());
  const auto res =
      core::find_top_alignments(s, Scoring::paper_example(), {});
  EXPECT_TRUE(res.tops.empty());
}

TEST(HostileInput, FastaGarbageIsRejectedCleanly) {
  for (const char* text :
       {"not fasta at all", ">ok\nACGT\n>bad\nAC!GT\n", ">x\n1234\n"}) {
    std::istringstream in(text);
    EXPECT_THROW((void)seq::read_fasta(in, Alphabet::dna()), std::logic_error)
        << text;
  }
}

TEST(HostileInput, FastaHeaderOnlyRecordIsRejected) {
  // A header with no sequence body is malformed input, not an empty
  // sequence: every downstream consumer assumes length >= 1.
  std::istringstream in(">empty-record\n>second\nACGT\n");
  try {
    (void)seq::read_fasta(in, Alphabet::dna());
    FAIL() << "header-only record was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("empty-record"), std::string::npos)
        << e.what();
  }
}

TEST(HostileInput, MissingFastaFileThrows) {
  EXPECT_THROW(
      (void)seq::read_fasta_file("/nonexistent/path/x.fa", Alphabet::dna()),
      std::logic_error);
}

TEST(Extremes, ManyMoreTopsThanPairsTerminates) {
  const auto g = seq::synthetic_dna_tandem(60, 6, 4, 5);
  FinderOptions opt;
  opt.num_top_alignments = 100000;
  const auto res =
      core::find_top_alignments(g.sequence, Scoring::paper_example(), opt);
  EXPECT_LT(res.tops.size(), 100000u);
  core::validate_tops(res.tops, g.sequence, Scoring::paper_example());
  // Every accepted alignment consumed at least one pair; pair-disjointness
  // bounds the total by m(m-1)/2.
  EXPECT_LT(res.tops.size(), 60u * 59u / 2u);
}

TEST(Extremes, HugeGapPenaltiesForbidGaps) {
  const auto g = seq::synthetic_dna_tandem(120, 10, 6, 9);
  const Scoring rigid{seq::ScoreMatrix::dna(2, -1), seq::GapPenalty{1000, 100}};
  FinderOptions opt;
  opt.num_top_alignments = 4;
  const auto res = core::find_top_alignments(g.sequence, rigid, opt);
  core::validate_tops(res.tops, g.sequence, rigid);
  for (const auto& top : res.tops) {
    // Gapless: pairs advance diagonally only.
    for (std::size_t k = 1; k < top.pairs.size(); ++k) {
      EXPECT_EQ(top.pairs[k].first, top.pairs[k - 1].first + 1);
      EXPECT_EQ(top.pairs[k].second, top.pairs[k - 1].second + 1);
    }
  }
}

TEST(Extremes, ZeroExtendGapPenalty) {
  // extend = 0 makes long gaps cheap; the recurrences must still agree.
  const auto g = seq::synthetic_dna_tandem(80, 8, 5, 13);
  const Scoring cheap{seq::ScoreMatrix::dna(2, -1), seq::GapPenalty{3, 0}};
  FinderOptions opt;
  opt.num_top_alignments = 4;
  const auto old_res = core::find_top_alignments_old(g.sequence, cheap, opt);
  const auto new_res = core::find_top_alignments(g.sequence, cheap, opt);
  std::string diff;
  EXPECT_TRUE(core::same_tops(old_res.tops, new_res.tops, &diff)) << diff;
}

}  // namespace
}  // namespace repro
