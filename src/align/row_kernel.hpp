// Row kernel of the single-rectangle DP behind the traceback (internal).
//
// The traceback needs the i32 H values of one rectangle, row by row, so it
// computes them itself instead of asking a score-only engine. In Eq. 1 the
// running gap maxima of row y read only row y-1's H:
//
//   MaxX(y,x) = max_{x'<x} (H(y-1,x'-1) - open + x'*ext) - x*ext
//   MaxY(y,x) = max(H(y-2,x-1) - open, MaxY(y-1,x)) - ext
//
// so a row is one running-max scan plus element-wise work over a query
// profile row, with no dependence on the row being written. Overrides are
// applied afterwards, one 64-bit word of the triangle at a time. The kernel
// body is a template over a vector-ops struct; it is compiled portably here
// and with -mavx2 in row_kernel_avx2.cpp, and RectangleRows picks one at
// run time.
//
// Row layout: every H and MaxY buffer holds row_size() Scores; element 0 is
// a sentinel left of column 0 (kNegInf in H) and element x+1 is column x.
// Kernels write whole blocks of lanes, so columns up to the padded width
// hold scratch values that no real column ever reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "align/types.hpp"

namespace repro::align::detail {

/// Computes one DP row over columns 1..width, rounded up to V::kLanes.
/// `prev` is row y-1's H and `max_y` its MaxY state (updated in place to
/// row y's), `profile` the exchange scores of row y's residue against the
/// columns; all point at column 0 of the row layout. Overrides are the
/// caller's job.
template <class V>
void dp_row(const Score* prev, const Score* profile, Score* max_y, Score* cur,
            int width, Score open, Score ext) {
  using Vec = typename V::Vec;
  const Vec vopen = V::set1(open);
  const Vec vext = V::set1(ext);
  const Vec vzero = V::set1(0);
  const Vec vshift = V::set1(open + ext);
  const Vec vstep = V::set1(V::kLanes * ext);
  Vec kx = V::ramp(ext);  // x * ext for the block's columns
  Vec run = V::set1(kNegInf);
  for (int x = 1; x <= width; x += V::kLanes) {
    const Vec diag = V::load(prev + x - 1);
    // Horizontal-gap candidate entering column x: H(y-1,x-2) - open +
    // (x-1)*ext; its inclusive running max minus x*ext is MaxX(y,x).
    const Vec from = V::sub(V::add(V::load(prev + x - 2), kx), vshift);
    run = V::max(V::prefix_max(from), run);
    const Vec max_x = V::sub(run, kx);
    run = V::broadcast_last(run);
    const Vec my = V::load(max_y + x);
    const Vec inner = V::max(V::max(max_x, my), diag);
    V::store(cur + x, V::max(vzero, V::add(V::load(profile + x), inner)));
    V::store(max_y + x, V::sub(V::max(V::sub(diag, vopen), my), vext));
    kx = V::add(kx, vstep);
  }
}

/// One Score per "vector": the portable instantiation.
struct ScalarRowOps {
  static constexpr int kLanes = 1;
  using Vec = Score;
  static Vec set1(Score v) { return v; }
  static Vec ramp(Score step) { return step; }
  static Vec load(const Score* p) { return *p; }
  static void store(Score* p, Vec v) { *p = v; }
  static Vec add(Vec a, Vec b) { return a + b; }
  static Vec sub(Vec a, Vec b) { return a - b; }
  static Vec max(Vec a, Vec b) { return a > b ? a : b; }
  static Vec prefix_max(Vec v) { return v; }
  static Vec broadcast_last(Vec v) { return v; }
};

using RowKernelFn = void (*)(const Score*, const Score*, Score*, Score*, int,
                             Score, Score);

#if REPRO_ENABLE_AVX2
/// dp_row over 8 x i32 AVX2 lanes (row_kernel_avx2.cpp).
void dp_row_avx2(const Score* prev, const Score* profile, Score* max_y,
                 Score* cur, int width, Score open, Score ext);
#endif

/// The DP rows of one rectangle (job.count == 1) under job.overrides, one
/// row at a time, in the row layout above. Residue profiles are built the
/// first time a row needs them.
class RectangleRows {
 public:
  explicit RectangleRows(const GroupJob& job);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] std::size_t row_size() const { return row_size_; }

  /// A buffer holding H of row 0 (zeros, with the sentinel).
  [[nodiscard]] std::vector<Score> zero_row() const;
  /// Columns 1..cols of a row buffer.
  [[nodiscard]] std::span<const Score> columns(const std::vector<Score>& h) const {
    return std::span<const Score>(h).subspan(2, static_cast<std::size_t>(cols_));
  }

  /// Computes row y (1-based) over columns 1..width from row y-1's H in
  /// `prev`, advancing `max_y` to row y; all three are row-layout buffers.
  void row(int y, const Score* prev, Score* max_y, Score* cur, int width);

  /// Sweeps rows 1..rows() over every column and returns the bottom row's
  /// H buffer. It also appends the H then MaxY buffers of row 0 and of
  /// every stride-th row to `checkpoints`.
  std::vector<Score> sweep(int stride, std::vector<Score>& checkpoints);

 private:
  const Score* profile(std::uint8_t code);

  const GroupJob& job_;
  int rows_;
  int cols_;
  std::size_t row_size_;
  RowKernelFn kernel_;
  std::vector<Score> profiles_;  ///< one row_size() slot per residue code
  std::vector<bool> built_;
};

}  // namespace repro::align::detail
