// The traceback row kernel over 8 x i32 AVX2 lanes, compiled with -mavx2 in
// its own translation unit; RectangleRows selects it behind a runtime check.
#include <immintrin.h>

#include "align/row_kernel.hpp"

namespace repro::align::detail {
namespace {

struct Avx2RowOps {
  static constexpr int kLanes = 8;
  using Vec = __m256i;
  static Vec set1(Score v) { return _mm256_set1_epi32(v); }
  static Vec ramp(Score step) {
    return _mm256_mullo_epi32(_mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8),
                              set1(step));
  }
  static Vec load(const Score* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(Score* p, Vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Vec add(Vec a, Vec b) { return _mm256_add_epi32(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_epi32(a, b); }
  static Vec max(Vec a, Vec b) { return _mm256_max_epi32(a, b); }
  /// Inclusive running max across the lanes: three shifted maxima. A shift
  /// repeats lane 0 rather than filling, which max absorbs.
  static Vec prefix_max(Vec v) {
    v = max(v, _mm256_permutevar8x32_epi32(
                   v, _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6)));
    v = max(v, _mm256_permutevar8x32_epi32(
                   v, _mm256_setr_epi32(0, 0, 0, 1, 2, 3, 4, 5)));
    return max(v, _mm256_permutevar8x32_epi32(
                      v, _mm256_setr_epi32(0, 0, 0, 0, 0, 1, 2, 3)));
  }
  static Vec broadcast_last(Vec v) {
    return _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(7));
  }
};

}  // namespace

void dp_row_avx2(const Score* prev, const Score* profile, Score* max_y,
                 Score* cur, int width, Score open, Score ext) {
  dp_row<Avx2RowOps>(prev, profile, max_y, cur, width, open, ext);
}

}  // namespace repro::align::detail
