// SIMD engines (SSE2 i16 at 4, 8 and 16 lanes, the SSE2 adaptive engine,
// and portable generic lanes) and the engine factory / ISA dispatch.
//
// The 4-lane engine models the paper's Pentium III SSE configuration (4 x
// i16), the 8-lane engine its Pentium 4 SSE2 configuration (8 x i16); the
// AVX2 engines (separate TU) are the natural successors. Generic-lane
// engines run the identical kernel without intrinsics: each kind's portable
// fallback, and the cross-check of the intrinsic engines in tests.
#include "align/engine.hpp"

#include <limits>
#include <utility>

#include "align/engine_detail.hpp"
#include "align/simd_engine_impl.hpp"
#include "align/simd_kernel.hpp"

#if REPRO_HAVE_SSE2
#include <emmintrin.h>
#endif

namespace repro::align {
namespace detail {
namespace {

#if REPRO_HAVE_SSE2

struct SseOps8 {
  static constexpr int kLanes = 8;
  using Elem = std::int16_t;
  static constexpr bool kSaturating = true;
  using Vec = __m128i;
  static Vec zero() { return _mm_setzero_si128(); }
  static Vec set1(std::int16_t x) { return _mm_set1_epi16(x); }
  static Vec load(const std::int16_t* p) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(std::int16_t* p, Vec a) {
    _mm_store_si128(reinterpret_cast<__m128i*>(p), a);
  }
  static Vec max(Vec a, Vec b) { return _mm_max_epi16(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm_adds_epi16(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm_subs_epi16(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm_and_si128(a, b); }
};

/// Four i16 lanes in the low half of an XMM register — the paper's SSE
/// (Pentium III) width. Loads zero the upper half; stores write 8 bytes.
struct SseOps4 {
  static constexpr int kLanes = 4;
  using Elem = std::int16_t;
  static constexpr bool kSaturating = true;
  using Vec = __m128i;
  static Vec zero() { return _mm_setzero_si128(); }
  static Vec set1(std::int16_t x) { return _mm_set1_epi16(x); }
  static Vec load(const std::int16_t* p) {
    return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  }
  static void store(std::int16_t* p, Vec a) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), a);
  }
  static Vec max(Vec a, Vec b) { return _mm_max_epi16(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm_adds_epi16(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm_subs_epi16(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm_and_si128(a, b); }
};

/// Sixteen unsigned u8 lanes in one XMM register (biased saturating
/// arithmetic; see simd_kernel.hpp for the bias/losslessness discussion).
struct SseOps16x8 {
  static constexpr int kLanes = 16;
  using Elem = std::uint8_t;
  static constexpr bool kSaturating = true;
  using Vec = __m128i;
  static Vec zero() { return _mm_setzero_si128(); }
  static Vec set1(std::uint8_t x) {
    return _mm_set1_epi8(static_cast<char>(x));
  }
  static Vec load(const std::uint8_t* p) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(std::uint8_t* p, Vec a) {
    _mm_store_si128(reinterpret_cast<__m128i*>(p), a);
  }
  static Vec max(Vec a, Vec b) { return _mm_max_epu8(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm_adds_epu8(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm_subs_epu8(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm_and_si128(a, b); }
  static bool all_eq(Vec a, Vec b) {
    return _mm_movemask_epi8(_mm_cmpeq_epi8(a, b)) == 0xFFFF;
  }
};

#endif  // REPRO_HAVE_SSE2

}  // namespace

#if REPRO_HAVE_SSE2
std::unique_ptr<Engine> make_simd_engine(int lanes, int stripe_cols) {
  if (lanes == 4)
    return std::make_unique<SimdEngineT<SseOps4>>("simd4-sse2", stripe_cols);
  if (lanes == 8)
    return std::make_unique<SimdEngineT<SseOps8>>("simd8-sse2", stripe_cols);
  if (lanes == 16)
    return std::make_unique<SimdEngineT<DoublePumpOps<SseOps8>>>("simd16-sse2",
                                                                 stripe_cols);
  REPRO_CHECK_MSG(false, "unsupported SSE2 lane count " << lanes);
  return nullptr;  // unreachable
}

std::unique_ptr<Engine> make_adaptive_sse2_engine(int stripe_cols) {
  return std::make_unique<AdaptiveEngineT<SseOps16x8, DoublePumpOps<SseOps8>>>(
      "auto-sse2", stripe_cols);
}
#endif  // REPRO_HAVE_SSE2

std::unique_ptr<Engine> make_simd_generic_engine(int lanes, int stripe_cols) {
  if (lanes == 4)
    return std::make_unique<SimdEngineT<GenericOps<4>>>("simd4-generic",
                                                        stripe_cols);
  if (lanes == 8)
    return std::make_unique<SimdEngineT<GenericOps<8>>>("simd8-generic",
                                                        stripe_cols);
  if (lanes == 16)
    return std::make_unique<SimdEngineT<GenericOps<16>>>("simd16-generic",
                                                         stripe_cols);
  REPRO_CHECK_MSG(false, "unsupported generic lane count " << lanes);
  return nullptr;  // unreachable
}

std::unique_ptr<Engine> make_simd32_generic_engine(int lanes, int stripe_cols) {
  if (lanes == 4)
    return std::make_unique<SimdEngineT<GenericOps32<4>>>("simd4x32-generic",
                                                          stripe_cols);
  if (lanes == 8)
    return std::make_unique<SimdEngineT<GenericOps32<8>>>("simd8x32-generic",
                                                          stripe_cols);
  REPRO_CHECK_MSG(false, "unsupported generic i32 lane count " << lanes);
  return nullptr;  // unreachable
}

std::unique_ptr<Engine> make_adaptive_generic_engine(int stripe_cols) {
  return std::make_unique<AdaptiveEngineT<GenericOps8<8>, GenericOps<8>>>(
      "auto-generic", stripe_cols);
}

}  // namespace detail

void Engine::align(const GroupJob& job, std::span<const std::span<Score>> out) {
  do_align(job, out);
  const auto m = static_cast<std::uint64_t>(job.seq.size());
  const std::uint64_t width = m - static_cast<std::uint64_t>(job.r0);
  // Rows restored from a checkpoint are never computed; count them apart so
  // cells/sec stays an honest throughput number.
  const std::uint64_t resumed_rows =
      (job.resume != nullptr && supports_checkpoints())
          ? static_cast<std::uint64_t>(job.resume->row)
          : 0;
  const std::uint64_t group_cells =
      (static_cast<std::uint64_t>(job.r0 + job.count - 1) - resumed_rows) *
      width * static_cast<std::uint64_t>(lanes());
  const std::uint64_t skipped_cells =
      resumed_rows * width * static_cast<std::uint64_t>(lanes());
  cells_ += group_cells;
  cells_skipped_ += skipped_cells;
  aligns_ += 1;
}

std::vector<Score> Engine::align_one(const GroupJob& job) {
  REPRO_CHECK(job.count == 1);
  const int m = static_cast<int>(job.seq.size());
  std::vector<Score> row(static_cast<std::size_t>(m - job.r0));
  std::span<Score> row_span(row);
  align(job, std::span<const std::span<Score>>(&row_span, 1));
  return row;
}

bool avx2_available() {
#if REPRO_ENABLE_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

namespace {

/// The i16 kinds below AVX2: SSE2 registers, else portable lanes.
std::unique_ptr<Engine> make_i16_engine(int lanes, int stripe_cols) {
#if REPRO_HAVE_SSE2
  return detail::make_simd_engine(lanes, stripe_cols);
#else
  return detail::make_simd_generic_engine(lanes, stripe_cols);
#endif
}

}  // namespace

std::unique_ptr<Engine> make_engine(EngineKind kind, int stripe_cols) {
  switch (kind) {
    case EngineKind::kScalar:
      return detail::make_scalar_engine();
    case EngineKind::kScalarStriped:
      return detail::make_scalar_striped_engine(stripe_cols);
    case EngineKind::kGeneralGap:
      return detail::make_general_gap_engine();
    case EngineKind::kSimd4:
      return make_i16_engine(4, stripe_cols);
    case EngineKind::kSimd8:
      return make_i16_engine(8, stripe_cols);
    case EngineKind::kSimd16:
#if REPRO_ENABLE_AVX2
      if (avx2_available()) return detail::make_simd_avx2_engine(stripe_cols);
#endif
      return make_i16_engine(16, stripe_cols);
    case EngineKind::kSimd8x32:
#if REPRO_ENABLE_AVX2
      if (avx2_available()) return detail::make_simd_avx2_32_engine(stripe_cols);
#endif
      return detail::make_simd32_generic_engine(8, stripe_cols);
    case EngineKind::kSimd4x32Generic:
      return detail::make_simd32_generic_engine(4, stripe_cols);
    case EngineKind::kSimdAuto:
#if REPRO_ENABLE_AVX2
      if (avx2_available()) return detail::make_adaptive_avx2_engine(stripe_cols);
#endif
#if REPRO_HAVE_SSE2
      return detail::make_adaptive_sse2_engine(stripe_cols);
#else
      return detail::make_adaptive_generic_engine(stripe_cols);
#endif
  }
  REPRO_CHECK_MSG(false, "unknown engine kind");
  return nullptr;  // unreachable
}

bool precision_fits(Precision precision, int m, const seq::Scoring& scoring) {
  if (precision == Precision::kI32 || precision == Precision::kAdaptive)
    return true;
  // Largest rectangle: min(r, m-r) residue pairs, maximized at r = m/2;
  // gaps only subtract, so this bounds every reachable score.
  const std::int64_t bound =
      static_cast<std::int64_t>(m / 2) * scoring.matrix.max_score();
  if (precision == Precision::kI16) {
    // 32766, not 32767: a peak of exactly INT16_MAX is indistinguishable
    // from a clamped add, so the kernels report it as saturated.
    return bound <= std::numeric_limits<std::int16_t>::max() - 1;
  }
  // kI8: the biased profile entries and the (cast) gap penalties must fit a
  // byte, and the score bound must leave one biased add of headroom below
  // the u8 ceiling (the kernel's certification limit).
  const int bias = std::max(0, -scoring.matrix.min_score());
  const int max_entry = scoring.matrix.max_score();
  if (bias + max_entry > 255 || scoring.gap.open > 255 ||
      scoring.gap.extend > 255)
    return false;
  return bound <= 255 - bias - max_entry;
}

EngineFactory engine_factory(EngineKind kind, int stripe_cols) {
  return [kind, stripe_cols] { return make_engine(kind, stripe_cols); };
}

}  // namespace repro::align
