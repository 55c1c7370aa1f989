// AVX2 engines, compiled with -mavx2 in their own translation unit.
// Dispatch happens in make_engine() behind a runtime CPU check. Three
// engines live here: 16 x i16, 8 x i32, and the adaptive driver pairing a
// 32 x u8 kernel (biased saturating) with a double-pumped 32-lane i16
// escalation path (two YMM registers per vector).
#include <immintrin.h>

#include "align/engine.hpp"
#include "align/engine_detail.hpp"
#include "align/simd_engine_impl.hpp"
#include "align/simd_kernel.hpp"

namespace repro::align::detail {
namespace {

struct Avx2Ops16 {
  static constexpr int kLanes = 16;
  using Elem = std::int16_t;
  static constexpr bool kSaturating = true;
  using Vec = __m256i;
  static Vec zero() { return _mm256_setzero_si256(); }
  static Vec set1(std::int16_t x) { return _mm256_set1_epi16(x); }
  static Vec load(const std::int16_t* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::int16_t* p, Vec a) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), a);
  }
  static Vec max(Vec a, Vec b) { return _mm256_max_epi16(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm256_adds_epi16(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm256_subs_epi16(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm256_and_si256(a, b); }
};

struct Avx2Ops8x32 {
  static constexpr int kLanes = 8;
  using Elem = Score;
  static constexpr bool kSaturating = false;
  using Vec = __m256i;
  static Vec zero() { return _mm256_setzero_si256(); }
  static Vec set1(Score x) { return _mm256_set1_epi32(x); }
  static Vec load(const Score* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(Score* p, Vec a) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), a);
  }
  static Vec max(Vec a, Vec b) { return _mm256_max_epi32(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm256_add_epi32(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm256_sub_epi32(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm256_and_si256(a, b); }
};

/// Thirty-two unsigned u8 lanes in one YMM register (biased saturating
/// arithmetic; see simd_kernel.hpp for the bias/losslessness discussion).
struct Avx2Ops32x8 {
  static constexpr int kLanes = 32;
  using Elem = std::uint8_t;
  static constexpr bool kSaturating = true;
  using Vec = __m256i;
  static Vec zero() { return _mm256_setzero_si256(); }
  static Vec set1(std::uint8_t x) {
    return _mm256_set1_epi8(static_cast<char>(x));
  }
  static Vec load(const std::uint8_t* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint8_t* p, Vec a) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), a);
  }
  static Vec max(Vec a, Vec b) { return _mm256_max_epu8(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm256_adds_epu8(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm256_subs_epu8(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm256_and_si256(a, b); }
  static bool all_eq(Vec a, Vec b) {
    return _mm256_movemask_epi8(_mm256_cmpeq_epi8(a, b)) == -1;
  }
};

}  // namespace

std::unique_ptr<Engine> make_simd_avx2_engine() {
  return std::make_unique<SimdEngineT<Avx2Ops16>>("simd16-avx2");
}

std::unique_ptr<Engine> make_simd_avx2_32_engine() {
  return std::make_unique<SimdEngineT<Avx2Ops8x32>>("simd8x32-avx2");
}

std::unique_ptr<Engine> make_adaptive_avx2_engine() {
  return std::make_unique<
      AdaptiveEngineT<Avx2Ops32x8, DoublePumpOps<Avx2Ops16>>>("auto-avx2");
}

}  // namespace repro::align::detail
