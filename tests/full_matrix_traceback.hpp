// Test oracle: the full-matrix traceback that align::traceback_best
// replaced. It fills the whole (rows+1) x (cols+1) matrix of rectangle r
// under the override triangle, picks the best valid bottom-row end with
// find_best_end and walks it back with the same move preference: diagonal,
// then the shortest horizontal gap, then the shortest vertical gap. The
// checkpointed traceback must return exactly its (score, end_x, pairs).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "align/engine_detail.hpp"
#include "align/override_triangle.hpp"
#include "align/traceback.hpp"
#include "util/check.hpp"

namespace repro::testing {

template <typename T>
align::Traceback full_matrix_traceback(const align::GroupJob& job,
                                       std::span<const T> original) {
  using align::kNegInf;
  using align::Score;
  namespace detail = align::detail;
  REPRO_CHECK(job.count == 1);
  const auto& seq = job.seq;
  const int m = static_cast<int>(seq.size());
  const int r = job.r0;
  const int rows = r;
  const int cols = m - r;
  const seq::ScoreMatrix& ex = job.scoring->matrix;
  const Score open = job.scoring->gap.open;
  const Score ext = job.scoring->gap.extend;

  // Full matrix, (rows+1) x (cols+1), boundary row/column zero.
  const std::size_t w = static_cast<std::size_t>(cols) + 1;
  std::vector<Score> mat((static_cast<std::size_t>(rows) + 1) * w, 0);
  auto at = [&](int y, int x) -> Score& {
    return mat[static_cast<std::size_t>(y) * w + static_cast<std::size_t>(x)];
  };

  std::vector<Score> max_y(w, kNegInf);
  for (int y = 1; y <= rows; ++y) {
    const int i = y - 1;
    const std::int16_t* erow = ex.row(seq[static_cast<std::size_t>(i)]);
    const std::atomic<std::uint64_t>* obits =
        (job.overrides != nullptr && !job.overrides->row_empty(i))
            ? job.overrides->row_bits(i)
            : nullptr;
    Score max_x = kNegInf;
    for (int x = 1; x <= cols; ++x) {
      const int j = r + x - 1;
      const Score diag = at(y - 1, x - 1);
      const Score inner = std::max({max_x, max_y[static_cast<std::size_t>(x)], diag});
      Score h = std::max(Score{0}, erow[seq[static_cast<std::size_t>(j)]] + inner);
      if (obits != nullptr && detail::override_bit(obits, i, j)) h = 0;
      at(y, x) = h;
      max_x = std::max(diag - open, max_x) - ext;
      max_y[static_cast<std::size_t>(x)] =
          std::max(diag - open, max_y[static_cast<std::size_t>(x)]) - ext;
    }
  }

  const std::span<const Score> bottom(&at(rows, 1), static_cast<std::size_t>(cols));
  const align::BestEnd end = original.empty()
                                 ? align::find_best_end(bottom)
                                 : align::find_best_end(bottom, original);
  REPRO_CHECK_MSG(end.end_x != 0 && end.score > 0,
                  "traceback requested with no positive valid end cell (r="
                      << r << ")");

  align::Traceback tb;
  tb.r = r;
  tb.score = end.score;
  tb.end_x = end.end_x;

  // Walk back. Every cell on the path aligns one pair; the predecessor is
  // found by re-deriving which inner-max candidate produced the value.
  int y = rows;
  int x = end.end_x;
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

inline align::Traceback full_matrix_traceback(const align::GroupJob& job) {
  return full_matrix_traceback<align::Score>(job, {});
}

}  // namespace repro::testing
