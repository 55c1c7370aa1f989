// SIMD engines: SSE2 i16 at 4, 8 and 16 lanes, the SSE2 adaptive engine,
// and portable generic lanes.
//
// The 4-lane engine models the paper's Pentium III SSE configuration (4 x
// i16), the 8-lane engine its Pentium 4 SSE2 configuration (8 x i16); the
// AVX2 engines (separate TU) are the natural successors. Generic-lane
// engines run the identical kernel without intrinsics: each kind's portable
// fallback, and the cross-check of the intrinsic engines in tests.
#include "align/engine.hpp"

#include "align/engine_detail.hpp"
#include "align/simd_engine_impl.hpp"
#include "align/simd_kernel.hpp"

#if REPRO_HAVE_SSE2
#include <emmintrin.h>
#endif

namespace repro::align::detail {
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
std::unique_ptr<Engine> make_simd_engine(int lanes) {
  if (lanes == 4) return std::make_unique<SimdEngineT<SseOps4>>("simd4-sse2");
  if (lanes == 8) return std::make_unique<SimdEngineT<SseOps8>>("simd8-sse2");
  if (lanes == 16)
    return std::make_unique<SimdEngineT<DoublePumpOps<SseOps8>>>(
        "simd16-sse2");
  REPRO_CHECK_MSG(false, "unsupported SSE2 lane count " << lanes);
  return nullptr;  // unreachable
}

std::unique_ptr<Engine> make_adaptive_sse2_engine() {
  return std::make_unique<AdaptiveEngineT<SseOps16x8, DoublePumpOps<SseOps8>>>(
      "auto-sse2");
}
#endif  // REPRO_HAVE_SSE2

std::unique_ptr<Engine> make_simd_generic_engine(int lanes) {
  if (lanes == 4)
    return std::make_unique<SimdEngineT<GenericOps<4>>>("simd4-generic");
  if (lanes == 8)
    return std::make_unique<SimdEngineT<GenericOps<8>>>("simd8-generic");
  if (lanes == 16)
    return std::make_unique<SimdEngineT<GenericOps<16>>>("simd16-generic");
  REPRO_CHECK_MSG(false, "unsupported generic lane count " << lanes);
  return nullptr;  // unreachable
}

std::unique_ptr<Engine> make_simd32_generic_engine(int lanes) {
  if (lanes == 4)
    return std::make_unique<SimdEngineT<GenericOps32<4>>>("simd4x32-generic");
  if (lanes == 8)
    return std::make_unique<SimdEngineT<GenericOps32<8>>>("simd8x32-generic");
  REPRO_CHECK_MSG(false, "unsupported generic i32 lane count " << lanes);
  return nullptr;  // unreachable
}

std::unique_ptr<Engine> make_adaptive_generic_engine() {
  return std::make_unique<AdaptiveEngineT<GenericOps8<8>, GenericOps<8>>>(
      "auto-generic");
}

}  // namespace repro::align::detail
