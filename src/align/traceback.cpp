#include "align/traceback.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "align/row_kernel.hpp"
#include "util/check.hpp"

namespace repro::align {
namespace {

template <typename T>
BestEnd find_best_end_impl(std::span<const Score> row, std::span<const T> original) {
  if (!original.empty())
    REPRO_CHECK_MSG(original.size() == row.size(),
                    "original bottom row size mismatch");
  BestEnd best;
  for (std::size_t x = 0; x < row.size(); ++x) {
    if (!original.empty() && row[x] != original[x]) continue;  // shadow
    if (best.end_x == 0 || row[x] > best.score) {
      best.score = row[x];
      best.end_x = static_cast<int>(x) + 1;
    }
  }
  return best;
}

/// Rows per segment: balances the checkpoints (2 rows every s rows) against
/// one refilled segment (s rows), i.e. s = ceil(sqrt(2 * rows)).
int segment_rows(int rows) {
  return static_cast<int>(std::ceil(std::sqrt(2.0 * rows)));
}

/// The H rows the walk reads, one segment at a time. Segment k holds rows
/// k*s .. min(k*s+s-1, rows); it is recomputed from checkpoint k, the
/// (H, MaxY) state of row k*s, when the walk first reads one of its rows,
/// and only over the columns the walk can still reach: no cell depends on
/// columns to its right, and the walk's rows and columns never increase.
class SegmentRows {
 public:
  SegmentRows(detail::RectangleRows& dp, int stride,
              const std::vector<Score>& checkpoints)
      : dp_(dp),
        stride_(stride),
        size_(dp.row_size()),
        checkpoints_(checkpoints),
        max_y_(size_),
        lo_(dp.rows() + 1) {
    const std::vector<Score> zero = dp.zero_row();
    seg_.reserve(static_cast<std::size_t>(stride) * size_);
    for (int t = 0; t < stride; ++t) seg_.insert(seg_.end(), zero.begin(), zero.end());
  }

  /// H(y, x), where from now on the walk reads no row below y and no column
  /// right of `limit` (>= x).
  Score at(int y, int x, int limit) {
    if (y < lo_) load(y / stride_, limit);
    REPRO_DCHECK(y <= hi_ && x <= limit && limit <= width_);
    return row(y)[x];
  }

 private:
  Score* row(int y) {
    return seg_.data() + static_cast<std::size_t>(y - lo_) * size_ + 1;
  }

  void load(int k, int width) {
    lo_ = k * stride_;
    hi_ = std::min(lo_ + stride_ - 1, dp_.rows());
    width_ = width;
    const auto size = static_cast<std::ptrdiff_t>(size_);
    const auto h = checkpoints_.begin() + 2 * k * size;
    std::copy(h, h + size, seg_.begin());
    std::copy(h + size, h + 2 * size, max_y_.begin());
    for (int y = lo_ + 1; y <= hi_; ++y)
      dp_.row(y, row(y - 1), max_y_.data() + 1, row(y), width);
  }

  detail::RectangleRows& dp_;
  int stride_;
  std::size_t size_;
  const std::vector<Score>& checkpoints_;
  std::vector<Score> seg_;  ///< stride_ rows of the row layout
  std::vector<Score> max_y_;
  int lo_;
  int hi_ = 0;
  int width_ = 0;
};

template <typename T>
Traceback traceback_best_impl(const GroupJob& job, std::span<const T> original) {
  detail::RectangleRows dp(job);
  const auto& seq = job.seq;
  const int r = job.r0;
  const int rows = dp.rows();
  const seq::ScoreMatrix& ex = job.scoring->matrix;
  const Score open = job.scoring->gap.open;
  const Score ext = job.scoring->gap.extend;

  // Forward pass: two rows, plus the (H, MaxY) state of every s-th row.
  const int stride = segment_rows(rows);
  std::vector<Score> checkpoints;
  const std::vector<Score> bottom = dp.sweep(stride, checkpoints);
  const BestEnd end = find_best_end_impl<T>(dp.columns(bottom), original);
  REPRO_CHECK_MSG(end.end_x != 0 && end.score > 0,
                  "traceback requested with no positive valid end cell (r="
                      << r << ")");

  Traceback tb;
  tb.r = r;
  tb.score = end.score;
  tb.end_x = end.end_x;

  // Walk back. Every cell on the path aligns one pair; the predecessor is
  // found by re-deriving which inner-max candidate produced the value.
  SegmentRows segments(dp, stride, checkpoints);
  int y = rows;
  int x = end.end_x;
  const auto at = [&](int yy, int xx) { return segments.at(yy, xx, x); };
  while (true) {
    const Score h = at(y, x);
    REPRO_DCHECK(h > 0);
    const int i = y - 1;
    const int j = r + x - 1;
    tb.pairs.emplace_back(i, j);
    const Score e = ex.score(seq[static_cast<std::size_t>(i)],
                             seq[static_cast<std::size_t>(j)]);
    const Score inner = h - e;
    int py = -1;
    int px = -1;
    if (at(y - 1, x - 1) == inner) {
      py = y - 1;
      px = x - 1;
    } else {
      // Shortest-gap preference, horizontal before vertical.
      for (int g = 1; g <= x - 2 && py < 0; ++g)
        if (at(y - 1, x - 1 - g) - open - g * ext == inner) {
          py = y - 1;
          px = x - 1 - g;
        }
      for (int g = 1; g <= y - 2 && py < 0; ++g)
        if (at(y - 1 - g, x - 1) - open - g * ext == inner) {
          py = y - 1 - g;
          px = x - 1;
        }
    }
    REPRO_CHECK_MSG(py >= 0, "traceback failed to find a predecessor at ("
                                 << y << "," << x << ")");
    if (at(py, px) == 0) break;  // local alignment starts here
    y = py;
    x = px;
  }

  std::reverse(tb.pairs.begin(), tb.pairs.end());
  return tb;
}

}  // namespace

TracebackPlan traceback_plan(const GroupJob& job) {
  const detail::RectangleRows dp(job);
  TracebackPlan plan;
  plan.stride = segment_rows(dp.rows());
  // Checkpoints (H and MaxY), one segment, the segment's MaxY, the
  // forward pass's three rows and one profile row per residue code.
  const std::size_t rows = 2 * static_cast<std::size_t>(dp.rows() / plan.stride + 1) +
                           static_cast<std::size_t>(plan.stride) + 4 +
                           static_cast<std::size_t>(job.scoring->matrix.size());
  plan.scratch_bytes = rows * dp.row_size() * sizeof(Score);
  return plan;
}

BestEnd find_best_end(std::span<const Score> row,
                      std::span<const std::int16_t> original) {
  return find_best_end_impl<std::int16_t>(row, original);
}

BestEnd find_best_end(std::span<const Score> row,
                      std::span<const Score> original) {
  return find_best_end_impl<Score>(row, original);
}

Traceback traceback_best(const GroupJob& job,
                         std::span<const std::int16_t> original) {
  return traceback_best_impl<std::int16_t>(job, original);
}

Traceback traceback_best(const GroupJob& job, std::span<const Score> original) {
  return traceback_best_impl<Score>(job, original);
}

BestEnd find_best_end(std::span<const Score> row) {
  return find_best_end_impl<Score>(row, {});
}

Traceback traceback_best(const GroupJob& job) {
  return traceback_best_impl<Score>(job, {});
}

}  // namespace repro::align
