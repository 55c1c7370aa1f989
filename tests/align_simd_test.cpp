// Equivalence of every SIMD engine with the scalar reference, across group
// widths, overrides, and partial final groups — plus the i16 saturation
// guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "align/engine.hpp"
#include "align/engine_detail.hpp"
#include "align/override_triangle.hpp"
#include "test_support.hpp"

namespace repro::align {
namespace {

using seq::Alphabet;
using seq::Scoring;

/// The SIMD implementations under test: each kind as make_engine
/// dispatches it, plus the generic-lane and SSE2 instantiations that the
/// dispatch passes over on this host. The values continue EngineKind's
/// numbering from kSimd4, so the printed test parameters stay stable.
enum class Impl {
  kSimd4 = 3,
  kSimd8,
  kSimd16,
  kGeneric4,
  kGeneric8,
  kSimd8x32,
  kGeneric4x32,
  kGeneric8x32,
  kGeneric16,
  kSse16,
  kAuto,
  kAutoGeneric,
  kAutoSse2
};

std::unique_ptr<Engine> make_impl(Impl impl) {
  switch (impl) {
    case Impl::kSimd4: return make_engine(EngineKind::kSimd4);
    case Impl::kSimd8: return make_engine(EngineKind::kSimd8);
    case Impl::kSimd16: return make_engine(EngineKind::kSimd16);
    case Impl::kSimd8x32: return make_engine(EngineKind::kSimd8x32);
    case Impl::kGeneric4x32: return make_engine(EngineKind::kSimd4x32Generic);
    case Impl::kAuto: return make_engine(EngineKind::kSimdAuto);
    case Impl::kGeneric4: return detail::make_simd_generic_engine(4);
    case Impl::kGeneric8: return detail::make_simd_generic_engine(8);
    case Impl::kGeneric16: return detail::make_simd_generic_engine(16);
    case Impl::kGeneric8x32: return detail::make_simd32_generic_engine(8);
    case Impl::kAutoGeneric: return detail::make_adaptive_generic_engine();
#if REPRO_HAVE_SSE2
    case Impl::kSse16: return detail::make_simd_engine(16);
    case Impl::kAutoSse2: return detail::make_adaptive_sse2_engine();
#endif
    default: break;
  }
  ADD_FAILURE() << "implementation not built";
  return make_engine(EngineKind::kScalar);
}

/// Saturating i16 implementations.
std::vector<Impl> simd_impls() {
  std::vector<Impl> impls{Impl::kGeneric4, Impl::kGeneric8, Impl::kGeneric16,
                          Impl::kSimd4, Impl::kSimd8, Impl::kSimd16};
#if REPRO_HAVE_SSE2
  impls.push_back(Impl::kSse16);
#endif
  return impls;
}

/// 32-bit implementations (no saturation limit).
std::vector<Impl> simd32_impls() {
  return {Impl::kGeneric4x32, Impl::kGeneric8x32, Impl::kSimd8x32};
}

/// Everything the equivalence sweeps should cover.
std::vector<Impl> all_simd_impls() {
  auto impls = simd_impls();
  for (Impl i : simd32_impls()) impls.push_back(i);
  return impls;
}

/// Aligns every rectangle of `s` in engine-sized groups and compares every
/// bottom row against `reference`, a one-lane engine (the scalar engine when
/// null).
void expect_engine_matches_scalar(Engine& engine, const seq::Sequence& s,
                                  const Scoring& scoring,
                                  const OverrideTriangle* tri,
                                  Engine* reference = nullptr) {
  const auto scalar = make_engine(EngineKind::kScalar);
  Engine* ref = reference != nullptr ? reference : scalar.get();
  const int m = s.length();
  const int lanes = engine.lanes();
  for (int r0 = 1; r0 <= m - 1; r0 += lanes) {
    const int count = std::min(lanes, m - r0);
    GroupJob job;
    job.seq = s.codes();
    job.scoring = &scoring;
    job.overrides = tri;
    job.r0 = r0;
    job.count = count;
    std::vector<std::vector<Score>> rows(static_cast<std::size_t>(count));
    std::vector<std::span<Score>> outs(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
      rows[static_cast<std::size_t>(k)].resize(static_cast<std::size_t>(m - (r0 + k)));
      outs[static_cast<std::size_t>(k)] = rows[static_cast<std::size_t>(k)];
    }
    engine.align(job, outs);
    for (int k = 0; k < count; ++k) {
      const auto expected =
          ref->align_one(testing::make_job(s, r0 + k, scoring, tri));
      EXPECT_EQ(rows[static_cast<std::size_t>(k)], expected)
          << engine.name() << " lane " << k << " of group r0=" << r0;
    }
  }
}

/// (SIMD implementation, stripe width of the striped scalar engine it is
/// checked against). The SIMD engines sweep whole rows; the second element
/// cross-checks each one with the §4.1 striped loop at no stripe, a tiny
/// one, an odd one and its L1 default.
class SimdEquivalence
    : public ::testing::TestWithParam<std::tuple<Impl, int>> {};

TEST_P(SimdEquivalence, MatchesScalarOnRepeatProtein) {
  const auto [impl, stripe] = GetParam();
  const auto engine = make_impl(impl);
  const auto reference = detail::make_scalar_striped_engine(stripe);
  const auto g = seq::synthetic_titin(220, 77);
  const Scoring scoring = Scoring::protein_default();
  expect_engine_matches_scalar(*engine, g.sequence, scoring, nullptr,
                               reference.get());
}

TEST_P(SimdEquivalence, MatchesScalarWithOverrides) {
  const auto [impl, stripe] = GetParam();
  const auto engine = make_impl(impl);
  const auto reference = detail::make_scalar_striped_engine(stripe);
  const auto g = seq::synthetic_dna_tandem(150, 10, 6, 99);
  const Scoring scoring = Scoring::paper_example();
  util::Rng rng(1234);
  OverrideTriangle tri(g.sequence.length());
  testing::random_overrides(g.sequence.length(), 400, rng, &tri);
  expect_engine_matches_scalar(*engine, g.sequence, scoring, &tri,
                               reference.get());
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<Impl, int>>& info) {
  const auto [impl, stripe] = info.param;
  std::string name;
  switch (impl) {
    case Impl::kSimd4: name = "sse4"; break;
    case Impl::kSimd8: name = "sse8"; break;
    case Impl::kSimd16: name = "avx16"; break;
    case Impl::kSse16: name = "sse16"; break;
    case Impl::kGeneric4: name = "gen4"; break;
    case Impl::kGeneric8: name = "gen8"; break;
    case Impl::kGeneric16: name = "gen16"; break;
    case Impl::kSimd8x32: name = "avx8x32"; break;
    case Impl::kGeneric4x32: name = "gen4x32"; break;
    case Impl::kGeneric8x32: name = "gen8x32"; break;
    default: name = "other"; break;
  }
  return name + "_stripe" + (stripe < 0 ? "none" : std::to_string(stripe));
}

std::vector<std::tuple<Impl, int>> make_params() {
  std::vector<std::tuple<Impl, int>> params;
  for (Impl impl : all_simd_impls())
    for (int stripe : {-1, 5, 33, 0})  // none, tiny, odd, L1 default
      params.emplace_back(impl, stripe);
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, SimdEquivalence,
                         ::testing::ValuesIn(make_params()), param_name);

TEST(SimdEngine, PartialFinalGroupAndSingleLane) {
  // count < lanes exercises the column masks; count == 1 the degenerate
  // group. m chosen so the last group of an 8-lane engine has 3 members.
  const auto g = seq::synthetic_titin(200, 5);
  const auto s = g.sequence.subsequence(0, 60);  // m-1 = 59 = 7*8 + 3
  const Scoring scoring = Scoring::protein_default();
  for (Impl impl : simd_impls()) {
    const auto engine = make_impl(impl);
    const auto scalar = make_engine(EngineKind::kScalar);
    for (int count = 1; count <= std::min(engine->lanes(), 4); ++count) {
      GroupJob job;
      job.seq = s.codes();
      job.scoring = &scoring;
      job.r0 = 30;
      job.count = count;
      std::vector<std::vector<Score>> rows(static_cast<std::size_t>(count));
      std::vector<std::span<Score>> outs(static_cast<std::size_t>(count));
      for (int k = 0; k < count; ++k) {
        rows[static_cast<std::size_t>(k)].resize(
            static_cast<std::size_t>(s.length() - (30 + k)));
        outs[static_cast<std::size_t>(k)] = rows[static_cast<std::size_t>(k)];
      }
      engine->align(job, outs);
      for (int k = 0; k < count; ++k)
        EXPECT_EQ(rows[static_cast<std::size_t>(k)],
                  scalar->align_one(testing::make_job(s, 30 + k, scoring)))
            << engine->name() << " count=" << count << " lane " << k;
    }
  }
}

TEST(SimdEngine, ThinRectanglesAtBothEnds) {
  // r = 1 (one row) and r = m-1 (one column) are the degenerate extremes;
  // every engine must agree with scalar, grouped or not.
  const auto g = seq::synthetic_titin(120, 44);
  const auto& s = g.sequence;
  const int m = s.length();
  const Scoring scoring = Scoring::protein_default();
  const auto scalar = make_engine(EngineKind::kScalar);
  for (Impl impl : all_simd_impls()) {
    const auto engine = make_impl(impl);
    for (const int r : {1, 2, m - 2, m - 1}) {
      EXPECT_EQ(engine->align_one(testing::make_job(s, r, scoring)),
                scalar->align_one(testing::make_job(s, r, scoring)))
          << engine->name() << " r=" << r;
    }
    // The final group of the sequence straddles r = m-1.
    const int lanes = engine->lanes();
    const int r0 = std::max(1, m - 1 - lanes + 1);
    const int count = m - r0;
    GroupJob job;
    job.seq = s.codes();
    job.scoring = &scoring;
    job.r0 = r0;
    job.count = count;
    std::vector<std::vector<Score>> rows(static_cast<std::size_t>(count));
    std::vector<std::span<Score>> outs(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
      rows[static_cast<std::size_t>(k)].resize(static_cast<std::size_t>(m - (r0 + k)));
      outs[static_cast<std::size_t>(k)] = rows[static_cast<std::size_t>(k)];
    }
    engine->align(job, outs);
    for (int k = 0; k < count; ++k)
      EXPECT_EQ(rows[static_cast<std::size_t>(k)],
                scalar->align_one(testing::make_job(s, r0 + k, scoring)))
          << engine->name() << " final-group lane " << k;
  }
}

TEST(SimdEngine, TinySequences) {
  // m = 2 is the smallest legal input (one split).
  const auto s = seq::Sequence::from_string("mini", "AT", seq::Alphabet::dna());
  const Scoring scoring = Scoring::paper_example();
  for (Impl impl : all_simd_impls()) {
    const auto engine = make_impl(impl);
    const auto row = engine->align_one(testing::make_job(s, 1, scoring));
    ASSERT_EQ(row.size(), 1u) << engine->name();
    EXPECT_EQ(row[0], 0) << engine->name();  // A vs T never scores
  }
  const auto s2 = seq::Sequence::from_string("mini2", "AA", seq::Alphabet::dna());
  for (Impl impl : all_simd_impls()) {
    const auto engine = make_impl(impl);
    EXPECT_EQ(engine->align_one(testing::make_job(s2, 1, scoring))[0], 2)
        << engine->name();
  }
}

TEST(SimdEngine, SaturationIsDetectedNotSilent) {
  // A long self-identical sequence under a huge match score must overflow
  // i16 somewhere in the matrix; the engine must throw, not corrupt.
  const auto s = seq::Sequence::from_string(
      "sat", std::string(700, 'A') + std::string(700, 'A'), Alphabet::dna());
  const Scoring scoring{seq::ScoreMatrix::dna(100, -1), seq::GapPenalty{2, 1}};
  for (Impl impl : simd_impls()) {
    const auto engine = make_impl(impl);
    EXPECT_THROW(engine->align_one(testing::make_job(s, 700, scoring)),
                 std::logic_error)
        << engine->name();
  }
  // The 32-bit engines (scalar and SIMD) handle the same input fine.
  const auto scalar = make_engine(EngineKind::kScalar);
  const auto row = scalar->align_one(testing::make_job(s, 700, scoring));
  EXPECT_EQ(row.back(), 700 * 100);
  for (Impl impl : simd32_impls()) {
    const auto engine = make_impl(impl);
    const auto wide = engine->align_one(testing::make_job(s, 700, scoring));
    EXPECT_EQ(wide, row) << engine->name();
  }
}

TEST(SimdEngine, CellAccountingIncludesLanes) {
  const auto g = seq::synthetic_titin(200, 6);
  const Scoring scoring = Scoring::protein_default();
  const auto engine = make_engine(EngineKind::kSimd8);
  GroupJob job;
  job.seq = g.sequence.codes();
  job.scoring = &scoring;
  job.r0 = 50;
  job.count = 8;
  std::vector<std::vector<Score>> rows(8);
  std::vector<std::span<Score>> outs(8);
  for (int k = 0; k < 8; ++k) {
    rows[static_cast<std::size_t>(k)].resize(
        static_cast<std::size_t>(200 - (50 + k)));
    outs[static_cast<std::size_t>(k)] = rows[static_cast<std::size_t>(k)];
  }
  engine->align(job, outs);
  EXPECT_EQ(engine->cells_computed(), 57ull * 150ull * 8ull);
}

/// Sets random override pairs, all in rows i of one parity. The kernel
/// pairs DP rows (1, 2), (3, 4), ... above r0, and DP row y holds pair row
/// i = y - 1, so even i lands on the first row of a pair and odd i on the
/// second.
void set_parity_overrides(OverrideTriangle& tri, int parity,
                          std::uint64_t seed) {
  const int m = tri.sequence_length();
  util::Rng rng(seed);
  for (int t = 0; t < 3 * m; ++t) {
    int i = static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1)));
    i -= (i % 2 + 2 - parity) % 2;
    if (i < 0) continue;
    tri.set(i, i + 1 +
                   static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(m - 1 - i))));
  }
}

TEST(SimdEngine, RowPairingEdgesMatchScalar) {
  // Edges of the register-blocked row pairs: r0 in {1, 2, 3} (no pairable
  // row, exactly one pair, one pair plus a single row), single-lane and
  // partial groups, the partial final group, and override bits on only
  // the first or only the second row of each pair.
  // Inputs: DNA inside the u8 headroom (every engine; the adaptive ones
  // stay in u8) and a homopolymer past it, which the adaptive engines must
  // escalate to their i16 kernel.
  const Scoring scoring = Scoring::paper_example();
  const auto in_range = seq::synthetic_dna_tandem(90, 9, 5, 31).sequence;
  const auto saturating = seq::Sequence::from_string(
      "poly", std::string(300, 'A'), Alphabet::dna());
  ASSERT_TRUE(precision_fits(Precision::kI8, in_range.length(), scoring));

  std::vector<Impl> impls = all_simd_impls();
  std::vector<Impl> adaptive{Impl::kAutoGeneric, Impl::kAuto};
#if REPRO_HAVE_SSE2
  adaptive.push_back(Impl::kAutoSse2);
#endif
  impls.insert(impls.end(), adaptive.begin(), adaptive.end());

  const auto scalar = make_engine(EngineKind::kScalar);
  for (const seq::Sequence* s : {&in_range, &saturating}) {
    const int m = s->length();
    OverrideTriangle first_rows(m);
    OverrideTriangle second_rows(m);
    set_parity_overrides(first_rows, 0, 5);
    set_parity_overrides(second_rows, 1, 6);
    const std::vector<const OverrideTriangle*> triangles{
        nullptr, &first_rows, &second_rows};
    // Scalar bottom rows, per triangle and split.
    std::vector<std::vector<std::vector<Score>>> expected(triangles.size());
    for (std::size_t t = 0; t < triangles.size(); ++t)
      for (int r = 1; r < m; ++r)
        expected[t].push_back(scalar->align_one(
            testing::make_job(*s, r, scoring, triangles[t])));

    for (const Impl impl : impls) {
      const bool is_adaptive =
          std::find(adaptive.begin(), adaptive.end(), impl) != adaptive.end();
      if (s == &saturating && !is_adaptive) continue;
      const auto engine = make_impl(impl);
      const int lanes = engine->lanes();
      std::vector<std::pair<int, int>> groups;  // (r0, count)
      for (const int r0 : {1, 2, 3})
        for (const int count : {lanes, 1, std::min(lanes, 3)})
          groups.emplace_back(r0, count);
      groups.emplace_back(m / 2, lanes);
      groups.emplace_back(m - 1 - lanes / 2, lanes / 2 + 1);  // final group
      for (std::size_t t = 0; t < triangles.size(); ++t) {
        for (const auto& [r0, count] : groups) {
          GroupJob job;
          job.seq = s->codes();
          job.scoring = &scoring;
          job.overrides = triangles[t];
          job.r0 = r0;
          job.count = count;
          std::vector<std::vector<Score>> rows(static_cast<std::size_t>(count));
          std::vector<std::span<Score>> outs(static_cast<std::size_t>(count));
          for (int k = 0; k < count; ++k) {
            rows[static_cast<std::size_t>(k)].resize(
                static_cast<std::size_t>(m - (r0 + k)));
            outs[static_cast<std::size_t>(k)] =
                rows[static_cast<std::size_t>(k)];
          }
          engine->align(job, outs);
          for (int k = 0; k < count; ++k)
            EXPECT_EQ(rows[static_cast<std::size_t>(k)],
                      expected[t][static_cast<std::size_t>(r0 + k - 1)])
                << engine->name() << " triangle " << t << " r0=" << r0
                << " count=" << count << " lane " << k << " m=" << m;
        }
      }
      if (s == &saturating) {
        EXPECT_GT(engine->precision_stats().escalations, 0u)
            << engine->name() << " never ran its i16 kernel";
      }
    }
  }
}

TEST(EngineDispatch, EveryKindMatchesScalarOnTheWidestIsa) {
  // Each kind builds on this build and CPU, names the ISA make_engine
  // picked for it, and gives the scalar bottom rows. Run under the no-avx2
  // preset, this covers the fallbacks.
#if REPRO_HAVE_SSE2
  const std::string narrow = "-sse2";
#else
  const std::string narrow = "-generic";
#endif
  const bool avx2 = avx2_available();
  const std::string wide = avx2 ? "-avx2" : narrow;
  const std::vector<std::pair<EngineKind, std::string>> expected{
      {EngineKind::kScalar, "scalar"},
      {EngineKind::kScalarStriped, "scalar-striped"},
      {EngineKind::kGeneralGap, "general-gap"},
      {EngineKind::kSimd4, "simd4" + narrow},
      {EngineKind::kSimd8, "simd8" + narrow},
      {EngineKind::kSimd16, "simd16" + wide},
      {EngineKind::kSimd8x32, avx2 ? "simd8x32-avx2" : "simd8x32-generic"},
      {EngineKind::kSimd4x32Generic, "simd4x32-generic"},
      {EngineKind::kSimdAuto, "auto" + wide}};
  const auto g = seq::synthetic_titin(120, 12);
  const Scoring scoring = Scoring::protein_default();
  for (const auto& [kind, name] : expected) {
    std::unique_ptr<Engine> engine;
    ASSERT_NO_THROW(engine = make_engine(kind)) << name;
    EXPECT_EQ(engine->name(), name);
    expect_engine_matches_scalar(*engine, g.sequence, scoring, nullptr);
  }
}

TEST(SimdEngine, BestEngineWorks) {
  const auto engine = make_engine(EngineKind::kSimdAuto);
  ASSERT_GE(engine->lanes(), 1);
  const auto g = seq::synthetic_titin(200, 9);
  const Scoring scoring = Scoring::protein_default();
  expect_engine_matches_scalar(*engine, g.sequence, scoring, nullptr);
}

}  // namespace
}  // namespace repro::align
