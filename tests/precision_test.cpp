// Adaptive-precision SIMD: static headroom boundaries (bias-aware),
// saturation certification at the exact u8 ceiling, transparent i8 -> i16
// escalation matching the scalar oracle, the precision ladder (an
// escalated sweep finishing in i16 from the deepest certified u8 row), the
// band sweep of ascending first-sweep groups, and query-profile reuse
// across runs and parallel partitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/engine.hpp"
#include "align/engine_detail.hpp"
#include "align/override_triangle.hpp"
#include "align/query_profile.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "parallel/parallel_finder.hpp"
#include "seq/generator.hpp"
#include "seq/scoring.hpp"
#include "seq/sequence.hpp"
#include "util/aligned.hpp"

namespace repro {
namespace {

using align::EngineKind;
using align::Precision;
using core::FinderOptions;

seq::Sequence homopolymer(int m) {
  // All-A DNA: the split at r0 = m/2 scores exactly match * (m/2), so the
  // kernel peak hits the static headroom bound with equality.
  return seq::Sequence::from_string("homopoly", std::string(
                                        static_cast<std::size_t>(m), 'A'),
                                    seq::Alphabet::dna());
}

/// Builds a fresh engine.
using MakeEngine = std::function<std::unique_ptr<align::Engine>()>;

/// The adaptive engine as make_engine dispatches it, and its portable
/// instantiation (and the SSE2 one, which dispatch passes over on an AVX2
/// host).
std::vector<MakeEngine> adaptive_engines() {
  std::vector<MakeEngine> engines{
      align::detail::make_adaptive_generic_engine,
      [] { return align::make_engine(EngineKind::kSimdAuto); }};
#if REPRO_HAVE_SSE2
  engines.push_back(align::detail::make_adaptive_sse2_engine);
#endif
  return engines;
}

// ---------------------------------------------------------------------------
// Static headroom: precision_fits boundaries

TEST(PrecisionHeadroom, I16BoundaryIsExact) {
  // paper_example (match +2): bound = 2 * (m/2) = m for even m. The i16
  // ceiling is 32766 — a peak of 32767 is indistinguishable from a clamped
  // lane, so 32767 must already be rejected.
  const seq::Scoring dna = seq::Scoring::paper_example();
  EXPECT_TRUE(align::precision_fits(Precision::kI16, 32766, dna));
  EXPECT_TRUE(align::precision_fits(Precision::kI16, 32767, dna));  // bound 32766
  EXPECT_FALSE(align::precision_fits(Precision::kI16, 32768, dna));
}

TEST(PrecisionHeadroom, I8BoundaryAccountsForBias) {
  // The u8 ceiling is 255 - bias - max_score, NOT 255 - max_score: with a
  // deeply negative mismatch the bias eats most of the range. This is the
  // regression for the old check that ignored the bias entirely.
  const seq::Scoring biased{seq::ScoreMatrix::uniform(seq::Alphabet::dna(),
                                                      3, -100),
                            seq::GapPenalty{2, 1}};
  // bias 100, max 3 -> ceiling 152; bound = 3 * (m/2).
  EXPECT_TRUE(align::precision_fits(Precision::kI8, 100, biased));   // 150
  EXPECT_FALSE(align::precision_fits(Precision::kI8, 104, biased));  // 156

  const seq::Scoring dna = seq::Scoring::paper_example();  // ceiling 252
  EXPECT_TRUE(align::precision_fits(Precision::kI8, 252, dna));
  EXPECT_FALSE(align::precision_fits(Precision::kI8, 254, dna));
}

TEST(PrecisionHeadroom, I8RejectsUnbiasableScoringOutright) {
  // bias + max > 255: no u8 profile exists at any length.
  const seq::Scoring wild{seq::ScoreMatrix::uniform(seq::Alphabet::dna(),
                                                    2, -300),
                          seq::GapPenalty{2, 1}};
  EXPECT_FALSE(align::precision_fits(Precision::kI8, 4, wild));
  // Gap penalties past a u8 also disqualify the precision.
  const seq::Scoring wide_gap{seq::ScoreMatrix::dna(2, -1),
                              seq::GapPenalty{300, 1}};
  EXPECT_FALSE(align::precision_fits(Precision::kI8, 4, wide_gap));
}

TEST(PrecisionHeadroom, AdaptiveAndI32AreNeverRejected) {
  const seq::Scoring protein = seq::Scoring::protein_default();
  EXPECT_TRUE(align::precision_fits(Precision::kAdaptive, 100000, protein));
  EXPECT_TRUE(align::precision_fits(Precision::kI32, 100000, protein));
}

// ---------------------------------------------------------------------------
// Kernel saturation certification at the exact u8 ceiling

TEST(PrecisionSaturation, HomopolymerAtCeilingStaysCleanAndMatchesScalar) {
  // m = 252: peak == 252 == ceiling, certified clean — the conservative
  // certificate must not false-positive at equality, so no sweep escalates.
  const seq::Sequence s = homopolymer(252);
  const seq::Scoring dna = seq::Scoring::paper_example();
  ASSERT_TRUE(align::precision_fits(Precision::kI8, s.length(), dna));
  FinderOptions opt;
  opt.num_top_alignments = 2;
  const auto scalar = align::make_engine(EngineKind::kScalar);
  const auto reference = find_top_alignments(s, dna, opt, *scalar);
  for (const auto& make : adaptive_engines()) {
    const auto engine = make();
    const auto res = find_top_alignments(s, dna, opt, *engine);
    std::string diff;
    EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
        << engine->name() << ": " << diff;
    EXPECT_GT(engine->precision_stats().i8_sweeps, 0u) << engine->name();
    EXPECT_EQ(engine->precision_stats().escalations, 0u) << engine->name();
  }
}

TEST(PrecisionSaturation, PastCeilingAdaptiveEscalates) {
  // m = 254: the middle split reaches 254 > ceiling 252. The adaptive
  // engines must escalate that group to i16 and still match the scalar
  // oracle exactly.
  const seq::Sequence s = homopolymer(254);
  const seq::Scoring dna = seq::Scoring::paper_example();
  ASSERT_FALSE(align::precision_fits(Precision::kI8, s.length(), dna));
  FinderOptions opt;
  opt.num_top_alignments = 2;
  const auto scalar = align::make_engine(EngineKind::kScalar);
  const auto reference = find_top_alignments(s, dna, opt, *scalar);
  for (const auto& make : adaptive_engines()) {
    const auto engine = make();
    const auto res = find_top_alignments(s, dna, opt, *engine);
    std::string diff;
    EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
        << engine->name() << ": " << diff;
    EXPECT_GT(engine->precision_stats().escalations, 0u) << engine->name();
    EXPECT_GT(engine->precision_stats().i16_sweeps, 0u) << engine->name();
  }
}

// ---------------------------------------------------------------------------
// Adaptive escalation on realistic workloads

// Highly conserved protein repeats: alignments run across several copies,
// so blosum62 scores blow past the biased u8 ceiling (255 - 4 - 11 = 240).
seq::GeneratedSequence saturating_protein(std::uint64_t seed) {
  seq::RepeatSpec spec;
  spec.unit_length = 24;
  spec.copies = 8;
  spec.conservation = 0.95;
  spec.indel_rate = 0.0;
  spec.tandem = true;
  return seq::make_repeat_sequence(seq::Alphabet::protein(), 240, spec, seed);
}

TEST(PrecisionAdaptive, EscalatesOnProteinAndMatchesScalar) {
  // The adaptive engines must demonstrably escalate on a saturating
  // workload and still be lossless.
  const auto g = saturating_protein(22);
  const seq::Scoring protein = seq::Scoring::protein_default();
  FinderOptions opt;
  opt.num_top_alignments = 6;
  const auto scalar = align::make_engine(EngineKind::kScalar);
  const auto reference = find_top_alignments(g.sequence, protein, opt, *scalar);
  for (const auto& make : adaptive_engines()) {
    const auto engine = make();
    const auto res = find_top_alignments(g.sequence, protein, opt, *engine);
    std::string diff;
    EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
        << engine->name() << ": " << diff;
    const auto stats = engine->precision_stats();
    EXPECT_GT(stats.escalations, 0u) << engine->name();
    EXPECT_GT(stats.i16_sweeps, 0u) << engine->name();
    // The finder surfaces the engine's counters in its own stats.
    EXPECT_EQ(res.stats.precision.escalations, stats.escalations)
        << engine->name();
    EXPECT_EQ(res.stats.precision.i16_sweeps, stats.i16_sweeps)
        << engine->name();
  }
}

TEST(PrecisionAdaptive, StaysI8InRangeAndReusesProfile) {
  // In-range DNA: no sweep may escalate, and the query profile is built
  // exactly once per (sequence, scoring) — later sweeps and a whole second
  // run on the same engine hit the cache.
  const auto s = seq::random_sequence(seq::Alphabet::dna(), 120, 24);
  const seq::Scoring dna = seq::Scoring::paper_example();
  FinderOptions opt;
  opt.num_top_alignments = 5;
  for (const auto& make : adaptive_engines()) {
    const auto engine = make();
    const auto res = find_top_alignments(s, dna, opt, *engine);
    const auto stats = engine->precision_stats();
    EXPECT_EQ(stats.escalations, 0u) << engine->name();
    EXPECT_EQ(stats.i16_sweeps, 0u) << engine->name();
    EXPECT_GT(stats.i8_sweeps, 0u) << engine->name();
    EXPECT_EQ(stats.profile_builds, 1u) << engine->name();
    EXPECT_GT(stats.profile_hits, 0u) << engine->name();
    EXPECT_EQ(res.stats.precision.i8_sweeps, stats.i8_sweeps) << engine->name();

    const auto again = find_top_alignments(s, dna, opt, *engine);
    std::string diff;
    EXPECT_TRUE(core::same_tops(res.tops, again.tops, &diff))
        << engine->name() << ": " << diff;
    EXPECT_EQ(engine->precision_stats().profile_builds, 1u)
        << engine->name() << ": second run must reuse the cached profile";
  }
}

TEST(PrecisionAdaptive, ParallelAutoMatchesSequentialAndSumsStats) {
  const auto g = saturating_protein(17);
  const seq::Scoring protein = seq::Scoring::protein_default();
  FinderOptions opt;
  opt.num_top_alignments = 8;
  const auto seq_engine = align::make_engine(EngineKind::kSimdAuto);
  const auto reference = find_top_alignments(g.sequence, protein, opt, *seq_engine);

  parallel::ParallelOptions popt;
  popt.threads = 3;
  popt.finder.num_top_alignments = 8;
  const auto par = parallel::find_top_alignments_parallel(
      g.sequence, protein, popt, align::engine_factory(EngineKind::kSimdAuto));
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, par.tops, &diff)) << diff;
  // Worker engines are fresh per partition; their precision counters are
  // summed into the parallel result.
  EXPECT_GT(par.stats.precision.i8_sweeps + par.stats.precision.i16_sweeps, 0u);
  EXPECT_GT(par.stats.precision.escalations, 0u);
}

// ---------------------------------------------------------------------------
// Precision ladder: a u8 sweep that breaks its certificate stops at that row
// and the same sweep finishes in i16 from the deepest certified state — the
// last staged checkpoint row above the break, else the job's u8 resume
// view, else row 0. Every case must give the scalar engine's bottom rows.

// A random DNA prefix followed by a tiled repetitive oligo (SNIPPETS.md's
// gmap repetitive.c: AAAAAA, ACACAC, AGAGAG, ...). Under paper_example the
// tandem's self-alignments gain 2 per row, so the u8 certificate (limit
// 252) breaks about 126 rows below the prefix: its length sets the depth.
seq::Sequence ladder_sequence(int prefix, int m, const std::string& oligo) {
  std::string s = seq::random_sequence(seq::Alphabet::dna(), prefix, 2003)
                      .to_string();
  while (static_cast<int>(s.size()) < m) s += oligo;
  s.resize(static_cast<std::size_t>(m));
  return seq::Sequence::from_string("ladder", s, seq::Alphabet::dna());
}

// The DP row at which the adaptive engine's u8 pass over the group (r0,
// count) stops: the first row where a lane holds an H above the u8
// certification limit (0 = none). An independent override-free evaluation
// of the recurrence, lane by lane.
int u8_break_row(const seq::Sequence& s, const seq::Scoring& sc, int r0,
                 int count) {
  const int limit =
      255 - std::max(0, -sc.matrix.min_score()) - sc.matrix.max_score();
  const auto codes = s.codes();
  int brk = 0;
  for (int r = r0; r < r0 + count; ++r) {
    const int cols = s.length() - r;
    std::vector<int> h(static_cast<std::size_t>(cols) + 1, 0);
    std::vector<int> my(h.size(), align::kNegInf);
    for (int y = 1; y <= r && (brk == 0 || y < brk); ++y) {
      const std::int16_t* e = sc.matrix.row(codes[static_cast<std::size_t>(y - 1)]);
      int diag = 0;
      int mx = align::kNegInf;
      for (std::size_t x = 1; x < h.size(); ++x) {
        const int up = h[x];
        const int inner = std::max({mx, my[x], diag});
        h[x] = std::max(0, e[codes[static_cast<std::size_t>(r) + x - 1]] + inner);
        mx = std::max(diag - sc.gap.open, mx) - sc.gap.extend;
        my[x] = std::max(diag - sc.gap.open, my[x]) - sc.gap.extend;
        diag = up;
        if (h[x] > limit) brk = y;
      }
    }
  }
  return brk;
}

struct LadderRun {
  std::vector<std::vector<align::Score>> rows;
  align::CheckpointSink sink;
};

// Sweeps the group (r0, lanes) of `s` under paper_example on `engine`.
LadderRun ladder_sweep(align::Engine& engine, const seq::Sequence& s, int r0,
                       int stride, bool with_sink,
                       const align::CheckpointView* resume = nullptr,
                       const align::OverrideTriangle* overrides = nullptr) {
  static const seq::Scoring dna = seq::Scoring::paper_example();
  LadderRun run;
  const int count = engine.lanes();
  std::vector<std::span<align::Score>> outs;
  for (int k = 0; k < count; ++k)
    run.rows.emplace_back(static_cast<std::size_t>(s.length() - r0 - k));
  for (auto& row : run.rows) outs.emplace_back(row);
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = &dna;
  job.overrides = overrides;
  job.r0 = r0;
  job.count = count;
  job.resume = resume;
  run.sink.stride = stride;
  run.sink.top_row = r0 - 1;
  if (with_sink) job.sink = &run.sink;
  engine.align(job, outs);
  return run;
}

align::CheckpointView view_of(const align::CheckpointSink& sink, int t) {
  const align::CheckpointRow& cr = sink.rows[static_cast<std::size_t>(t)];
  return {cr.row, sink.lanes, sink.elem_size, cr.h.data(), cr.max_y.data(),
          cr.h.size()};
}

// The group's bottom rows equal the scalar engine's, split by split.
void expect_scalar_rows(const seq::Sequence& s, int r0,
                        const std::vector<std::vector<align::Score>>& rows,
                        const std::string& what) {
  static const seq::Scoring dna = seq::Scoring::paper_example();
  const auto scalar = align::make_engine(EngineKind::kScalar);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    align::GroupJob job;
    job.seq = s.codes();
    job.scoring = &dna;
    job.r0 = r0 + static_cast<int>(k);
    EXPECT_EQ(scalar->align_one(job), rows[k])
        << what << ": split r=" << job.r0;
  }
}

// A later sweep resumed from each staged (widened) row gives the rows of a
// from-scratch sweep.
void expect_resumes_match(align::Engine& engine, const seq::Sequence& s,
                          int r0, const align::CheckpointSink& sink,
                          const std::string& what) {
  ASSERT_GT(sink.count, 0) << what;
  EXPECT_EQ(sink.elem_size, 2) << what;
  for (int t = 0; t < sink.count; ++t) {
    const align::CheckpointView view = view_of(sink, t);
    const auto again = ladder_sweep(engine, s, r0, 1, false, &view);
    expect_scalar_rows(s, r0, again.rows,
                       what + ", resumed at row " + std::to_string(view.row));
  }
}

constexpr int kLadderPrefix = 40;
constexpr int kLadderM = 520;
constexpr int kLadderR0 = 300;  // the break lies well above the group's r0

TEST(PrecisionLadder, BreakAboveTheFirstGridRowSweepsI16FromRowOne) {
  const auto s = ladder_sequence(kLadderPrefix, kLadderM, "ACACAC");
  for (const auto& make : adaptive_engines()) {
    const auto engine = make();
    const int brk = u8_break_row(s, seq::Scoring::paper_example(), kLadderR0,
                                 engine->lanes());
    ASSERT_GT(brk, 1);
    const int stride = brk + 20;  // first grid row below the break
    ASSERT_LT(stride, kLadderR0 - 1);
    auto run = ladder_sweep(*engine, s, kLadderR0, stride, true);
    EXPECT_EQ(engine->precision_stats().escalations, 1u) << engine->name();
    expect_scalar_rows(s, kLadderR0, run.rows, engine->name());
    ASSERT_EQ(run.sink.count, 2) << engine->name();  // stride and r0 - 1
    EXPECT_EQ(run.sink.rows[0].row, stride);
    expect_resumes_match(*engine, s, kLadderR0, run.sink, engine->name());
  }
}

TEST(PrecisionLadder, BreakBetweenGridRowsResumesFromTheRowAbove) {
  for (const std::string oligo : {"ACACAC", "AAAAAA", "AGAGAG"}) {
    const auto s = ladder_sequence(kLadderPrefix, kLadderM, oligo);
    for (const auto& make : adaptive_engines()) {
      const auto engine = make();
      const std::string what = engine->name() + " " + oligo;
      const int brk = u8_break_row(s, seq::Scoring::paper_example(),
                                   kLadderR0, engine->lanes());
      constexpr int kStride = 25;
      ASSERT_GT(brk, kStride) << what;
      ASSERT_LT(brk + kStride, kLadderR0) << what;
      ASSERT_NE(brk % kStride, 0) << what;
      auto run = ladder_sweep(*engine, s, kLadderR0, kStride, true);
      EXPECT_EQ(engine->precision_stats().escalations, 1u) << what;
      expect_scalar_rows(s, kLadderR0, run.rows, what);
      // The same grid rows as a sweep run wide from row 1.
      ASSERT_EQ(run.sink.count, (kLadderR0 - 1) / kStride + 1) << what;
      for (int t = 0; t < run.sink.count; ++t)
        EXPECT_EQ(run.sink.rows[static_cast<std::size_t>(t)].row,
                  std::min((t + 1) * kStride, kLadderR0 - 1))
            << what;
      expect_resumes_match(*engine, s, kLadderR0, run.sink, what);
    }
  }
}

TEST(PrecisionLadder, I16ResumeRowSkipsTheU8PassOnAnotherEngine) {
  // Engines sharing one checkpoint cache escalate independently: an i16
  // row staged by one engine tells another that the split saturates, so it
  // resumes in i16 at once instead of dropping the row for a u8 pass.
  const auto s = ladder_sequence(kLadderPrefix, kLadderM, "ACACAC");
  for (const auto& make : adaptive_engines()) {
    const auto first = make();
    const auto run = ladder_sweep(*first, s, kLadderR0, 25, true);
    ASSERT_EQ(run.sink.elem_size, 2) << first->name();
    const auto other = make();
    const align::CheckpointView view = view_of(run.sink, run.sink.count - 1);
    const auto again = ladder_sweep(*other, s, kLadderR0, 1, false, &view);
    EXPECT_EQ(other->precision_stats().i8_sweeps, 0u) << other->name();
    EXPECT_EQ(other->precision_stats().i16_sweeps, 1u) << other->name();
    expect_scalar_rows(s, kLadderR0, again.rows, other->name());

    // The other way round: a u8 row, as an engine that swept the split clean
    // would store it, seeds the escalated engine's i16 pass, widened. The
    // staged rows above the break are widened u8 rows; narrow the deepest.
    const int brk = u8_break_row(s, seq::Scoring::paper_example(), kLadderR0,
                                 first->lanes());
    int t = 0;
    while (t + 1 < run.sink.count &&
           run.sink.rows[static_cast<std::size_t>(t + 1)].row < brk)
      ++t;
    const align::CheckpointRow& wide = run.sink.rows[static_cast<std::size_t>(t)];
    ASSERT_LT(wide.row, brk) << first->name();
    const auto to_u8 = [](const std::vector<std::byte>& i16) {
      std::vector<std::int16_t> v(i16.size() / 2);
      std::memcpy(v.data(), i16.data(), i16.size());
      std::vector<std::byte> u8;
      for (const std::int16_t x : v) {
        EXPECT_TRUE(x >= 0 && x <= 255) << x;
        u8.push_back(static_cast<std::byte>(x));
      }
      return u8;
    };
    const align::CheckpointRow narrow{wide.row, to_u8(wide.h),
                                      to_u8(wide.max_y)};
    const align::CheckpointView u8_view{narrow.row, first->lanes(), 1,
                                        narrow.h.data(), narrow.max_y.data(),
                                        narrow.h.size()};
    const auto before = first->precision_stats();
    const auto widened = ladder_sweep(*first, s, kLadderR0, 25, true, &u8_view);
    EXPECT_EQ(first->precision_stats().i8_sweeps, before.i8_sweeps)
        << first->name();
    EXPECT_EQ(first->precision_stats().i16_sweeps, before.i16_sweeps + 1)
        << first->name();
    expect_scalar_rows(s, kLadderR0, widened.rows, first->name());
    // Resumed, not swept from row 1: the first staged row lies below it.
    ASSERT_GT(widened.sink.count, 0) << first->name();
    EXPECT_EQ(widened.sink.elem_size, 2) << first->name();
    EXPECT_GT(widened.sink.rows[0].row, u8_view.row) << first->name();
  }
}

TEST(PrecisionLadder, KeptRowsAreTheWidenedU8Rows) {
  // auto-generic shares its i16 layout with simd8-generic (8 x i16), so
  // the escalated sweep's rows can be compared to a pure i16 sweep's: H is
  // identical everywhere, and MaxY differs only in entries below zero —
  // the kept u8 rows hold exactly max(MaxY, 0).
  const auto s = ladder_sequence(kLadderPrefix, kLadderM, "ACACAC");
  const auto adaptive = align::detail::make_adaptive_generic_engine();
  const auto wide = align::detail::make_simd_generic_engine(8);
  ASSERT_EQ(adaptive->lanes(), wide->lanes());
  const int brk = u8_break_row(s, seq::Scoring::paper_example(), kLadderR0,
                               adaptive->lanes());
  constexpr int kStride = 25;
  const auto got = ladder_sweep(*adaptive, s, kLadderR0, kStride, true);
  const auto want = ladder_sweep(*wide, s, kLadderR0, kStride, true);
  ASSERT_EQ(adaptive->precision_stats().escalations, 1u);
  ASSERT_EQ(got.sink.count, want.sink.count);
  int kept = 0;
  for (int t = 0; t < got.sink.count; ++t) {
    const auto& g = got.sink.rows[static_cast<std::size_t>(t)];
    const auto& w = want.sink.rows[static_cast<std::size_t>(t)];
    ASSERT_EQ(g.row, w.row);
    ASSERT_EQ(g.h.size(), w.h.size());
    EXPECT_EQ(g.h, w.h) << "row " << g.row;
    const std::size_t n = g.max_y.size() / 2;
    std::vector<std::int16_t> gy(n), wy(n);
    std::memcpy(gy.data(), g.max_y.data(), g.max_y.size());
    std::memcpy(wy.data(), w.max_y.data(), w.max_y.size());
    const bool widened = g.row < brk;
    kept += widened ? 1 : 0;
    for (std::size_t e = 0; e < n; ++e) {
      if (widened) {
        ASSERT_EQ(gy[e], std::max<std::int16_t>(wy[e], 0))
            << "row " << g.row << " elem " << e;
      } else if (wy[e] >= 0) {
        ASSERT_EQ(gy[e], wy[e]) << "row " << g.row << " elem " << e;
      } else {
        ASSERT_TRUE(gy[e] >= wy[e] && gy[e] <= 0)
            << "row " << g.row << " elem " << e;
      }
    }
  }
  EXPECT_GT(kept, 1);
}

TEST(PrecisionLadder, BreakInsideTheDeepRowsKeepsEveryGridRow) {
  const auto s = ladder_sequence(kLadderPrefix, kLadderM, "ACACAC");
  for (const auto& make : adaptive_engines()) {
    const auto engine = make();
    const int lanes = engine->lanes();
    const int far = u8_break_row(s, seq::Scoring::paper_example(), kLadderR0,
                                 lanes);
    const int r0 = far - lanes / 2;
    const int brk = u8_break_row(s, seq::Scoring::paper_example(), r0, lanes);
    ASSERT_GT(brk, r0) << engine->name();
    ASSERT_LT(brk, r0 + lanes) << engine->name();
    auto run = ladder_sweep(*engine, s, r0, 30, true);
    EXPECT_EQ(engine->precision_stats().escalations, 1u) << engine->name();
    expect_scalar_rows(s, r0, run.rows, engine->name());
    ASSERT_GT(run.sink.count, 0);
    EXPECT_EQ(run.sink.rows[static_cast<std::size_t>(run.sink.count - 1)].row,
              r0 - 1);
    expect_resumes_match(*engine, s, r0, run.sink, engine->name());
  }
}

TEST(PrecisionLadder, BreakAfterAU8ResumeViewWithNoStagedRow) {
  // The u8 view comes from a clean sweep of the same group whose deep rows
  // are overridden away: rows above r0 match the plain sweep's exactly.
  const auto s = ladder_sequence(kLadderPrefix, kLadderM, "ACACAC");
  for (const auto& make : adaptive_engines()) {
    const auto engine = make();
    const int lanes = engine->lanes();
    const int far = u8_break_row(s, seq::Scoring::paper_example(), kLadderR0,
                                 lanes);
    const int r0 = far - lanes / 2;
    ASSERT_GT(u8_break_row(s, seq::Scoring::paper_example(), r0, lanes), r0);
    align::OverrideTriangle deep(s.length());
    for (int i = r0 - 1; i < r0 + lanes - 1; ++i)
      for (int j = i + 1; j < s.length(); ++j) deep.set(i, j);
    const auto clean = ladder_sweep(*engine, s, r0, 1000, true, nullptr, &deep);
    ASSERT_EQ(engine->precision_stats().escalations, 0u) << engine->name();
    ASSERT_EQ(clean.sink.elem_size, 1);
    const align::CheckpointView view =
        view_of(clean.sink, clean.sink.count - 1);
    ASSERT_EQ(view.row, r0 - 1);

    auto run = ladder_sweep(*engine, s, r0, 1000, true, &view);
    EXPECT_EQ(engine->precision_stats().escalations, 1u) << engine->name();
    EXPECT_EQ(run.sink.count, 0) << engine->name();
    expect_scalar_rows(s, r0, run.rows, engine->name());
  }
}

TEST(PrecisionLadder, BreakWithNoSink) {
  const auto s = ladder_sequence(kLadderPrefix, kLadderM, "AGAGAG");
  for (const auto& make : adaptive_engines()) {
    const auto engine = make();
    auto run = ladder_sweep(*engine, s, kLadderR0, 1, false);
    EXPECT_EQ(engine->precision_stats().escalations, 1u) << engine->name();
    expect_scalar_rows(s, kLadderR0, run.rows, engine->name());
  }
}

TEST(PrecisionLadder, I16CeilingUnderAutoNamesTheWiderEngines) {
  // Match 1000: i16 saturates within 100 residues, and the bias makes u8
  // infeasible, so the adaptive engine goes straight to its i16 rung.
  const seq::Scoring huge{
      seq::ScoreMatrix::uniform(seq::Alphabet::dna(), 1000, -1000),
      seq::GapPenalty{2, 1}};
  const seq::Sequence s = homopolymer(100);
  ASSERT_FALSE(align::precision_fits(Precision::kI8, s.length(), huge));
  ASSERT_FALSE(align::precision_fits(Precision::kI16, s.length(), huge));
  FinderOptions opt;
  opt.num_top_alignments = 1;
  for (const auto& make : adaptive_engines()) {
    const auto engine = make();
    try {
      (void)find_top_alignments(s, huge, opt, *engine);
      ADD_FAILURE() << engine->name() << " did not throw";
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("auto engine"), std::string::npos) << msg;
      EXPECT_NE(msg.find("i16 ceiling"), std::string::npos) << msg;
      EXPECT_NE(msg.find("simd8x32"), std::string::npos) << msg;
      EXPECT_NE(msg.find("scalar"), std::string::npos) << msg;
      EXPECT_EQ(msg.find("use an adaptive"), std::string::npos) << msg;
    }
  }
}

// ---------------------------------------------------------------------------
// Band sweep: a first-sweep group that follows the adjacent group on the
// same engine recomputes only where it differs from that group's last
// rectangle. Every call must give what a fresh engine gives for the same
// calls out of order.

enum class Call { kFirst, kRealign, kAlignOne };

struct BandStep {
  const seq::Sequence* s;
  int r0;
  Call call = Call::kFirst;
};

struct BandOut {
  std::vector<std::vector<align::Score>> rows;
  align::CheckpointSink sink;
};

// One call as core::Sweeper makes it: the empty triangle and a sink on the
// Sweeper's grid for a first sweep, the triangle for a realignment, one
// split through align_one. With `plain`, a first sweep passes an empty
// override triangle instead of none: the same rows by the plain sweep,
// which never touches the band grid.
BandOut band_call(align::Engine& engine, const BandStep& step,
                  const seq::Scoring& sc,
                  const align::OverrideTriangle& triangle, bool plain = false) {
  BandOut run;
  const int m = step.s->length();
  align::GroupJob job;
  job.seq = step.s->codes();
  job.scoring = &sc;
  job.r0 = step.r0;
  if (step.call == Call::kAlignOne) {
    run.rows.push_back(engine.align_one(job));
    return run;
  }
  job.count = std::min(engine.lanes(), m - step.r0);
  const align::OverrideTriangle empty(m);
  if (step.call == Call::kRealign) job.overrides = &triangle;
  if (step.call == Call::kFirst && plain) job.overrides = &empty;
  std::vector<std::span<align::Score>> outs;
  for (int k = 0; k < job.count; ++k)
    run.rows.emplace_back(static_cast<std::size_t>(m - step.r0 - k));
  for (auto& row : run.rows) outs.emplace_back(row);
  const int rows = step.r0 + job.count - 1;
  run.sink.stride = std::max(1, (rows + 15) / 16);
  run.sink.top_row = step.r0 - 1;
  job.sink = &run.sink;
  engine.align(job, outs);
  return run;
}

// Runs `steps` in order on one engine, and each step on a new engine by
// the plain sweep (band_call's `plain`), which never bands; expects equal
// rows, staged rows and sweep counts. Returns the first engine's reused
// lane cells after each step.
std::vector<std::uint64_t> expect_band_matches_fresh(
    const MakeEngine& make, const std::vector<BandStep>& steps,
    const seq::Scoring& sc, const std::string& what) {
  const auto band = make();
  // The realignment triangle: a few pairs of the first sequence's top rows.
  const int m = steps.front().s->length();
  align::OverrideTriangle triangle(m);
  for (int i = 0; i < 6 && i < m - 1 - i; ++i) triangle.set(i, m - 1 - i);
  std::vector<std::uint64_t> reused;
  align::PrecisionStats pb;
  std::uint64_t fresh_cells = 0;
  std::uint64_t switches = 0;  // steps on another sequence than the last
  for (std::size_t t = 0; t < steps.size(); ++t) {
    const BandStep& step = steps[t];
    if (t == 0 || step.s != steps[t - 1].s) ++switches;
    const align::OverrideTriangle single(step.s->length());
    const align::OverrideTriangle& tri =
        step.s == steps.front().s ? triangle : single;
    const BandOut x = band_call(*band, step, sc, tri);
    reused.push_back(band->precision_stats().cells_reused);
    const auto fresh = make();
    const BandOut y = band_call(*fresh, step, sc, tri, /*plain=*/true);
    pb += fresh->precision_stats();
    fresh_cells += fresh->cells_computed();
    const std::string at = what + " (" + band->name() + "), step " +
                           std::to_string(t) + " r0=" + std::to_string(step.r0);
    EXPECT_EQ(x.rows, y.rows) << at;
    EXPECT_EQ(x.sink.elem_size, y.sink.elem_size) << at;
    EXPECT_EQ(x.sink.lanes, y.sink.lanes) << at;
    EXPECT_EQ(x.sink.count, y.sink.count) << at;
    for (int k = 0; k < std::min(x.sink.count, y.sink.count); ++k) {
      const auto& rx = x.sink.rows[static_cast<std::size_t>(k)];
      const auto& ry = y.sink.rows[static_cast<std::size_t>(k)];
      EXPECT_EQ(rx.row, ry.row) << at;
      EXPECT_TRUE(rx.h == ry.h && rx.max_y == ry.max_y)
          << at << ": staged row " << rx.row;
    }
  }
  const align::PrecisionStats pa = band->precision_stats();
  EXPECT_EQ(pa.i8_sweeps, pb.i8_sweeps) << what;
  EXPECT_EQ(pa.i16_sweeps, pb.i16_sweeps) << what;
  EXPECT_EQ(pa.escalations, pb.escalations) << what;
  // Every sweep looks its profile up once; the per-step engines build one
  // each time, the chaining engine at most one per rung per sequence.
  EXPECT_EQ(pa.profile_hits + pa.profile_builds,
            pb.profile_hits + pb.profile_builds) << what;
  EXPECT_GE(pa.profile_builds, switches) << what;
  EXPECT_LE(pa.profile_builds, 2 * switches) << what;
  EXPECT_EQ(pb.cells_reused, 0u) << what;
  EXPECT_EQ(band->cells_computed(), fresh_cells) << what;
  return reused;
}

// Every first-sweep group of `s`, ascending.
std::vector<BandStep> ascending(const seq::Sequence& s, int lanes) {
  std::vector<BandStep> steps;
  for (int r0 = 1; r0 < s.length(); r0 += lanes) steps.push_back({&s, r0});
  return steps;
}

TEST(BandSweep, AscendingRunsMatchAFreshEngine) {
  const seq::Scoring protein = seq::Scoring::protein_default();
  const seq::Scoring dna = seq::Scoring::paper_example();
  const auto titin = seq::synthetic_titin(600, 4241).sequence;
  const auto random_protein =
      seq::random_sequence(seq::Alphabet::protein(), 450, 7);
  const auto random_dna = seq::random_sequence(seq::Alphabet::dna(), 450, 11);
  for (const MakeEngine& make : adaptive_engines()) {
    const int lanes = make()->lanes();
    const auto reused =
        expect_band_matches_fresh(make, ascending(titin, lanes), protein,
                                  "titin");
    EXPECT_GT(reused.back(), 0u) << "titin takes the band";
    expect_band_matches_fresh(make, ascending(random_protein, lanes), protein,
                              "random protein");
    expect_band_matches_fresh(make, ascending(random_dna, lanes), dna,
                              "random DNA");
  }
}

TEST(BandSweep, EscalatedRunThenReseed) {
  // A tandem block in the middle: the groups over it escalate, the band
  // resumes after it from a re-seeded reference.
  const auto& protein_alphabet = seq::Alphabet::protein();
  const std::string unit =
      seq::random_sequence(protein_alphabet, 24, 5).to_string();
  std::string text = seq::random_sequence(protein_alphabet, 300, 3).to_string();
  for (int copy = 0; copy < 10; ++copy) text += unit;
  text += seq::random_sequence(protein_alphabet, 400, 4).to_string();
  const auto s = seq::Sequence::from_string("tandem", text, protein_alphabet);
  const seq::Scoring protein = seq::Scoring::protein_default();
  for (const MakeEngine& make : adaptive_engines()) {
    const int lanes = make()->lanes();
    const auto steps = ascending(s, lanes);
    const auto reused =
        expect_band_matches_fresh(make, steps, protein, "lowcomplex");
    // The first escalated group ends the first chain; the band must take
    // cells again after the run.
    const auto probe = make();
    std::size_t first_escalated = 0;
    while (first_escalated < steps.size() &&
           probe->precision_stats().escalations == 0)
      band_call(*probe, steps[first_escalated++], protein,
                align::OverrideTriangle(s.length()));
    ASSERT_GT(probe->precision_stats().escalations, 0u) << probe->name();
    EXPECT_GT(reused.back(), reused[first_escalated - 1])
        << probe->name() << ": no band step after the escalated run";
  }
}

TEST(BandSweep, ShortAndRaggedSequences) {
  const seq::Scoring protein = seq::Scoring::protein_default();
  for (const MakeEngine& make : adaptive_engines()) {
    const int lanes = make()->lanes();
    for (const int m : {lanes + 1, 2 * lanes - 5, 2 * lanes, 7 * lanes + 3}) {
      const auto s = seq::random_sequence(seq::Alphabet::protein(), m, 2003);
      expect_band_matches_fresh(make, ascending(s, lanes), protein,
                                "m=" + std::to_string(m));
    }
  }
}

TEST(BandSweep, OtherCallsBreakTheChain) {
  const seq::Scoring protein = seq::Scoring::protein_default();
  const auto s = seq::synthetic_titin(500, 2003).sequence;
  const auto other = seq::synthetic_titin(480, 4241).sequence;
  for (const MakeEngine& make : adaptive_engines()) {
    const int L = make()->lanes();
    // Each interruption sits between two band groups.
    expect_band_matches_fresh(
        make,
        {{&s, 1}, {&s, 1 + L}, {&s, 1 + 3 * L}, {&s, 1 + 2 * L},
         {&s, 1 + 4 * L}},
        protein, "non-adjacent group");
    expect_band_matches_fresh(make,
                              {{&s, 1},
                               {&s, 1 + L},
                               {&s, 1, Call::kRealign},
                               {&s, 1 + 2 * L},
                               {&s, 1 + 3 * L, Call::kRealign},
                               {&s, 1 + 3 * L}},
                              protein, "realignment");
    // A low-memory plain recompute: a whole group under the empty triangle.
    expect_band_matches_fresh(
        make,
        {{&s, 1}, {&s, 1 + L}, {&s, 1 + L}, {&s, 1 + 2 * L}, {&s, 1 + 3 * L}},
        protein, "plain recompute");
    expect_band_matches_fresh(make,
                              {{&s, 1},
                               {&s, 1 + L},
                               {&s, 1 + 2 * L, Call::kAlignOne},
                               {&s, 1 + 2 * L},
                               {&s, 1 + 3 * L}},
                              protein, "align_one");
    // One engine reused on a second sequence, and back.
    std::vector<BandStep> steps = ascending(s, L);
    for (const BandStep& step : ascending(other, L)) steps.push_back(step);
    steps.push_back({&s, 1});
    steps.push_back({&s, 1 + L});
    expect_band_matches_fresh(make, steps, protein, "second sequence");
  }
}

TEST(BandSweep, OnlyTheAutoEngineBandsWithinItsGridCap) {
  using align::EngineKind;
  for (const MakeEngine& make : adaptive_engines()) {
    EXPECT_TRUE(make()->bands(3000)) << make()->name();
    EXPECT_TRUE(make()->bands(6689)) << make()->name();
    EXPECT_FALSE(make()->bands(6690)) << make()->name();
  }
  for (const EngineKind kind :
       {EngineKind::kScalar, EngineKind::kScalarStriped, EngineKind::kGeneralGap,
        EngineKind::kSimd4, EngineKind::kSimd16, EngineKind::kSimd8x32})
    EXPECT_FALSE(align::make_engine(kind)->bands(3000))
        << align::make_engine(kind)->name();
}

TEST(BandSweep, ChainsThatStartMidSequence) {
  // A worker's run of first sweeps starts wherever the scheduler splits
  // the groups: the first group seeds, the rest band.
  const seq::Scoring protein = seq::Scoring::protein_default();
  const auto s = seq::synthetic_titin(600, 4241).sequence;
  for (const MakeEngine& make : adaptive_engines()) {
    const int L = make()->lanes();
    const auto all = ascending(s, L);
    for (const std::size_t k : {std::size_t{1}, all.size() / 2}) {
      const std::vector<BandStep> run(all.begin() + static_cast<std::ptrdiff_t>(k),
                                      all.end());
      const auto reused = expect_band_matches_fresh(
          make, run, protein, "run from group " + std::to_string(k));
      EXPECT_EQ(reused.front(), 0u) << "a seed sweeps whole";
      EXPECT_GT(reused.back(), 0u) << "the groups after the seed band";
    }
  }
}

TEST(BandSweep, NoSeedAfterARealignment) {
  // Low-memory mode recomputes a group's plain rows right after its
  // realignment: a whole group under the empty triangle, which must run
  // the plain sweep and leave the grid unallocated.
  const seq::Scoring protein = seq::Scoring::protein_default();
  const auto s = seq::synthetic_titin(500, 2003).sequence;
  for (const MakeEngine& make : adaptive_engines()) {
    const int L = make()->lanes();
    const auto reused = expect_band_matches_fresh(
        make,
        {{&s, 1},
         {&s, 1 + L},
         {&s, 1 + 2 * L, Call::kRealign},
         {&s, 1 + 2 * L},
         {&s, 1 + 3 * L},
         {&s, 1 + 4 * L}},
        protein, "plain recomputes");
    EXPECT_GT(reused[1], 0u);
    EXPECT_EQ(reused.back(), reused[1]) << "a call after the realignment banded";
  }
}

// ---------------------------------------------------------------------------
// Query-profile content keying and scratch alignment contract

TEST(PrecisionProfile, ContentKeyedCacheDetectsEveryIngredientChange) {
  align::PrecisionStats stats;
  align::QueryProfileT<std::uint8_t> profile;
  const auto s1 = seq::random_sequence(seq::Alphabet::dna(), 40, 7);
  const auto s2 = seq::random_sequence(seq::Alphabet::dna(), 40, 8);
  const seq::Scoring a = seq::Scoring::paper_example();
  seq::Scoring b = a;
  b.gap.extend += 1;

  EXPECT_TRUE(profile.ensure(s1.codes(), a, stats));   // build
  EXPECT_FALSE(profile.ensure(s1.codes(), a, stats));  // hit
  EXPECT_TRUE(profile.ensure(s2.codes(), a, stats));   // sequence changed
  EXPECT_TRUE(profile.ensure(s2.codes(), b, stats));   // gap changed
  EXPECT_FALSE(profile.ensure(s2.codes(), b, stats));
  EXPECT_EQ(stats.profile_builds, 3u);
  EXPECT_EQ(stats.profile_hits, 2u);
  EXPECT_TRUE(profile.feasible());
  EXPECT_EQ(profile.bias(), 1);
  EXPECT_EQ(profile.max_score(), 2);
}

TEST(PrecisionProfile, InfeasibleScoringIsMarkedNotCrashed) {
  // A scoring whose bias + max exceeds the u8 range still builds (for the
  // content key) but reports infeasible, so callers fall back to i16.
  align::PrecisionStats stats;
  align::QueryProfileT<std::uint8_t> profile;
  const auto s = seq::random_sequence(seq::Alphabet::dna(), 40, 7);
  const seq::Scoring wild{seq::ScoreMatrix::uniform(seq::Alphabet::dna(),
                                                    2, -300),
                          seq::GapPenalty{2, 1}};
  EXPECT_TRUE(profile.ensure(s.codes(), wild, stats));
  EXPECT_FALSE(profile.feasible());
}

TEST(PrecisionProfile, AlignedAllocatorSatisfiesAvx2Loads) {
  // The u8 scratch rows are loaded with 32-byte AVX2 vectors; the shared
  // allocator must hand out storage that satisfies them.
  std::vector<std::uint8_t, util::AlignedAllocator<std::uint8_t>> v(100);
  EXPECT_TRUE(util::is_vector_aligned(v.data()));
  std::vector<std::int16_t, util::AlignedAllocator<std::int16_t>> w(100);
  EXPECT_TRUE(util::is_vector_aligned(w.data()));
}

}  // namespace
}  // namespace repro
