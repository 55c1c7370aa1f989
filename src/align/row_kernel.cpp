#include "align/row_kernel.hpp"

#include <algorithm>
#include <bit>

#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "util/check.hpp"

namespace repro::align::detail {
namespace {

/// Widest kernel lane count; rows are padded to a multiple of it.
constexpr int kMaxLanes = 8;

void dp_row_scalar(const Score* prev, const Score* profile, Score* max_y,
                   Score* cur, int width, Score open, Score ext) {
  dp_row<ScalarRowOps>(prev, profile, max_y, cur, width, open, ext);
}

RowKernelFn pick_kernel() {
#if REPRO_ENABLE_AVX2
  if (avx2_available()) return dp_row_avx2;
#endif
  return dp_row_scalar;
}

/// Zeroes the cells of columns 1..width whose pair is overridden. Bit b of
/// row i is pair (i, i+1+b), so column x is bit x-1+d with d = r-1-i;
/// each step reads the 64 bits of 64 columns.
void apply_overrides(const std::atomic<std::uint64_t>* bits, int d, Score* cur,
                     int width) {
  for (int x0 = 1; x0 <= width; x0 += 64) {
    const int n = std::min(64, width - x0 + 1);
    const int b = d + x0 - 1;
    const int k = b >> 6;
    const int shift = b & 63;
    std::uint64_t word = bits[k].load(std::memory_order_relaxed) >> shift;
    if (shift != 0 && ((b + n - 1) >> 6) > k)
      word |= bits[k + 1].load(std::memory_order_relaxed) << (64 - shift);
    if (n < 64) word &= (std::uint64_t{1} << n) - 1;
    for (; word != 0; word &= word - 1) cur[x0 + std::countr_zero(word)] = 0;
  }
}

}  // namespace

RectangleRows::RectangleRows(const GroupJob& job)
    : job_(job),
      rows_(job.r0),
      cols_(static_cast<int>(job.seq.size()) - job.r0),
      row_size_(static_cast<std::size_t>(
                    (cols_ + kMaxLanes - 1) / kMaxLanes * kMaxLanes) + 2),
      kernel_(pick_kernel()),
      built_(static_cast<std::size_t>(job.scoring->matrix.size()), false) {
  REPRO_CHECK(job.count == 1);
  REPRO_CHECK_MSG(rows_ >= 1 && cols_ >= 1,
                  "split " << rows_ << " out of range for m=" << job.seq.size());
}

std::vector<Score> RectangleRows::zero_row() const {
  std::vector<Score> h(row_size_, 0);
  h[0] = kNegInf;
  return h;
}

const Score* RectangleRows::profile(std::uint8_t code) {
  if (profiles_.empty()) profiles_.resize(built_.size() * row_size_, 0);
  Score* p = profiles_.data() + code * row_size_ + 1;
  if (!built_[code]) {
    const std::int16_t* erow = job_.scoring->matrix.row(code);
    const std::uint8_t* suffix = job_.seq.data() + job_.r0 - 1;
    for (int x = 1; x <= cols_; ++x) p[x] = erow[suffix[x]];
    built_[code] = true;
  }
  return p;
}

void RectangleRows::row(int y, const Score* prev, Score* max_y, Score* cur,
                        int width) {
  const int i = y - 1;
  kernel_(prev, profile(job_.seq[static_cast<std::size_t>(i)]), max_y, cur,
          width, job_.scoring->gap.open, job_.scoring->gap.extend);
  if (job_.overrides != nullptr && !job_.overrides->row_empty(i))
    apply_overrides(job_.overrides->row_bits(i), rows_ - 1 - i, cur, width);
}

std::vector<Score> RectangleRows::sweep(int stride,
                                        std::vector<Score>& checkpoints) {
  std::vector<Score> prev = zero_row();
  std::vector<Score> cur = zero_row();
  std::vector<Score> max_y(row_size_, kNegInf);  // the state before row 1
  const auto save = [&](const std::vector<Score>& h) {
    checkpoints.insert(checkpoints.end(), h.begin(), h.end());
    checkpoints.insert(checkpoints.end(), max_y.begin(), max_y.end());
  };
  checkpoints.reserve(2 * static_cast<std::size_t>(rows_ / stride + 1) * row_size_);
  save(prev);
  for (int y = 1; y <= rows_; ++y) {
    row(y, prev.data() + 1, max_y.data() + 1, cur.data() + 1, cols_);
    if (y % stride == 0) save(cur);
    std::swap(prev, cur);
  }
  return prev;
}

}  // namespace repro::align::detail
