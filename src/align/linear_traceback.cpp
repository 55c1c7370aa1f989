#include "align/linear_traceback.hpp"

#include <algorithm>
#include <vector>

#include "align/override_triangle.hpp"
#include "align/row_kernel.hpp"
#include "util/check.hpp"

namespace repro::align {
namespace {

// 64-bit working scores: deep floors survive long subtraction chains.
using Wide = std::int64_t;
constexpr Wide kWideNegInf = -(Wide{1} << 50);

/// Divide-and-conquer reconstruction of a pair-path between two known
/// anchor pairs with a known total score, in O(cols) memory.
///
/// Unlike textbook Hirschberg/Myers–Miller — which reconstruct a *general*
/// global alignment and may legally produce adjacent insertion+deletion
/// "double gaps" — this walks the paper's own Eq.-1 path model (every step
/// consumes one residue pair plus at most one single-direction gap), so the
/// result is always expressible as a top-alignment pair list and always
/// reproduces the local DP score exactly.
///
/// Scheme: anchored forward DP from the start pair and anchored backward DP
/// from the end pair meet at a middle row; the optimal path crosses that row
/// either at a pair (F + A - E == S there) or inside a vertical gap (the
/// per-column gap-reach maxima locate its two flanking pairs). Recurse on
/// both halves.
class PairPathReconstructor {
 public:
  PairPathReconstructor(std::span<const std::uint8_t> seq,
                        const seq::Scoring& scoring,
                        const OverrideTriangle* overrides)
      : seq_(seq),
        scoring_(scoring),
        overrides_(overrides),
        open_(scoring.gap.open),
        ext_(scoring.gap.extend) {}

  /// Emits every pair strictly between the anchors, in order. `total` is
  /// the full path score including both anchor exchange values.
  void solve(std::pair<int, int> pa, std::pair<int, int> pb, Wide total,
             std::vector<std::pair<int, int>>& out) {
    out_ = &out;
    recurse(pa, pb, total);
  }

  [[nodiscard]] Wide exchange(int i, int j) const {
    if (overrides_ != nullptr && overrides_->contains(i, j)) return kWideNegInf;
    return scoring_.matrix.score(seq_[static_cast<std::size_t>(i)],
                                 seq_[static_cast<std::size_t>(j)]);
  }

 private:
  [[nodiscard]] Wide gap_cost(int len) const {
    return len == 0 ? 0 : Wide{open_} + Wide{len} * ext_;
  }

  /// One step pa -> pb with no interior pairs: diagonal plus at most one gap.
  [[nodiscard]] Wide step_score(std::pair<int, int> pa,
                                std::pair<int, int> pb) const {
    const int di = pb.first - pa.first;
    const int dj = pb.second - pa.second;
    REPRO_DCHECK(di >= 1 && dj >= 1 && (di == 1 || dj == 1));
    return exchange(pa.first, pa.second) + exchange(pb.first, pb.second) -
           (di > 1 ? gap_cost(di - 1) : 0) - (dj > 1 ? gap_cost(dj - 1) : 0);
  }

  /// Join-time snapshot of an anchored DP at the middle row.
  struct Snapshot {
    std::vector<Wide> pair_row;  ///< F/A value of a pair at (i_mid, j)
    std::vector<Wide> reach;     ///< vertical-gap reach: max F(i,j) +- i*ext
    std::vector<int> reach_arg;  ///< row attaining `reach`
  };

  /// Anchored forward DP from pa over rows (pa.i, i_mid], interior columns
  /// (pa.j, pb.j). reach[x] = max over i in [pa.i, i_mid) of F(i,j) + i*ext.
  Snapshot forward(std::pair<int, int> pa, std::pair<int, int> pb, int i_mid) {
    const int cols = pb.second - pa.second - 1;  // interior columns
    Snapshot snap;
    snap.pair_row.assign(static_cast<std::size_t>(cols) + 1, kWideNegInf);
    snap.reach.assign(static_cast<std::size_t>(cols) + 1, kWideNegInf);
    snap.reach_arg.assign(static_cast<std::size_t>(cols) + 1, -1);

    // row[x]: F of the previous row; x = j - pa.j (0 = anchor column).
    std::vector<Wide> row(static_cast<std::size_t>(cols) + 1, kWideNegInf);
    std::vector<Wide> max_y(static_cast<std::size_t>(cols) + 1, kWideNegInf);
    row[0] = exchange(pa.first, pa.second);
    snap.reach[0] = row[0] + Wide{pa.first} * ext_;
    snap.reach_arg[0] = pa.first;

    for (int i = pa.first + 1; i <= i_mid; ++i) {
      Wide diag = row[0];
      row[0] = kWideNegInf;  // the anchor lives on row pa.i only
      Wide max_x = kWideNegInf;
      for (int x = 1; x <= cols; ++x) {
        const int j = pa.second + x;
        const Wide up = row[static_cast<std::size_t>(x)];
        const Wide inner =
            std::max({max_x, max_y[static_cast<std::size_t>(x)], diag});
        const Wide f =
            inner <= kWideNegInf / 2 ? kWideNegInf : exchange(i, j) + inner;
        row[static_cast<std::size_t>(x)] = f;
        if (i < i_mid && f > kWideNegInf / 2 &&
            f + Wide{i} * ext_ > snap.reach[static_cast<std::size_t>(x)]) {
          snap.reach[static_cast<std::size_t>(x)] = f + Wide{i} * ext_;
          snap.reach_arg[static_cast<std::size_t>(x)] = i;
        }
        max_x = std::max(diag - open_, max_x) - ext_;
        max_y[static_cast<std::size_t>(x)] =
            std::max(diag - open_, max_y[static_cast<std::size_t>(x)]) - ext_;
        diag = up;
      }
    }
    snap.pair_row = row;
    return snap;
  }

  /// Mirror: anchored backward DP from pb down to i_mid.
  /// reach[x] = max over i in (i_mid, pb.i] of A(i,j) - i*ext.
  Snapshot backward(std::pair<int, int> pa, std::pair<int, int> pb, int i_mid) {
    const int cols = pb.second - pa.second - 1;
    Snapshot snap;
    snap.pair_row.assign(static_cast<std::size_t>(cols) + 1, kWideNegInf);
    snap.reach.assign(static_cast<std::size_t>(cols) + 1, kWideNegInf);
    snap.reach_arg.assign(static_cast<std::size_t>(cols) + 1, -1);

    // x = pb.j - j this time (0 = anchor column), rows descend from pb.i.
    std::vector<Wide> row(static_cast<std::size_t>(cols) + 1, kWideNegInf);
    std::vector<Wide> max_y(static_cast<std::size_t>(cols) + 1, kWideNegInf);
    row[0] = exchange(pb.first, pb.second);
    snap.reach[0] = row[0] - Wide{pb.first} * ext_;
    snap.reach_arg[0] = pb.first;

    for (int i = pb.first - 1; i >= i_mid; --i) {
      Wide diag = row[0];
      row[0] = kWideNegInf;
      Wide max_x = kWideNegInf;
      for (int x = 1; x <= cols; ++x) {
        const int j = pb.second - x;
        const Wide up = row[static_cast<std::size_t>(x)];
        const Wide inner =
            std::max({max_x, max_y[static_cast<std::size_t>(x)], diag});
        const Wide a =
            inner <= kWideNegInf / 2 ? kWideNegInf : exchange(i, j) + inner;
        row[static_cast<std::size_t>(x)] = a;
        if (i > i_mid && a > kWideNegInf / 2 &&
            a - Wide{i} * ext_ > snap.reach[static_cast<std::size_t>(x)]) {
          snap.reach[static_cast<std::size_t>(x)] = a - Wide{i} * ext_;
          snap.reach_arg[static_cast<std::size_t>(x)] = i;
        }
        max_x = std::max(diag - open_, max_x) - ext_;
        max_y[static_cast<std::size_t>(x)] =
            std::max(diag - open_, max_y[static_cast<std::size_t>(x)]) - ext_;
        diag = up;
      }
    }
    snap.pair_row = row;
    return snap;
  }

  // NOLINTNEXTLINE(misc-no-recursion): divide-and-conquer halves rows per level
  void recurse(std::pair<int, int> pa, std::pair<int, int> pb, Wide total) {
    const int interior_rows = pb.first - pa.first - 1;
    const int interior_cols = pb.second - pa.second - 1;
    if (interior_rows <= 0 || interior_cols <= 0) {
      // No interior pairs are possible: pa -> pb is a single step.
      REPRO_CHECK_MSG(step_score(pa, pb) == total,
                      "pair-path reconstruction: leaf score mismatch");
      return;
    }

    const int i_mid = pa.first + 1 + interior_rows / 2;
    const Snapshot fwd = forward(pa, pb, i_mid);
    const Snapshot bwd = backward(pa, pb, i_mid);
    const int cols = interior_cols;

    // Type 1: the path has a pair at (i_mid, j). F and A both include that
    // pair's exchange value, so the sum double-counts it once.
    for (int x = 1; x <= cols; ++x) {
      const int j = pa.second + x;
      const Wide f = fwd.pair_row[static_cast<std::size_t>(x)];
      const Wide a = bwd.pair_row[static_cast<std::size_t>(cols + 1 - x)];
      if (f <= kWideNegInf / 2 || a <= kWideNegInf / 2) continue;
      if (f + a - exchange(i_mid, j) == total) {
        const std::pair<int, int> mid{i_mid, j};
        recurse(pa, mid, f);
        out_->push_back(mid);
        recurse(mid, pb, a);
        return;
      }
    }

    // Type 2: a vertical gap spans row i_mid, from pair (i1, j) to pair
    // (i2, j+1): F(i1,j) - (open + (i2-i1-1)*ext) + A(i2,j+1)
    //         = [F + i1*ext] + [A - i2*ext] - open + ext.
    for (int x = 0; x <= cols; ++x) {
      const Wide p = fwd.reach[static_cast<std::size_t>(x)];
      // backward column for j+1: x_b = pb.j - (j+1) = cols - x.
      const Wide q = bwd.reach[static_cast<std::size_t>(cols - x)];
      if (p <= kWideNegInf / 2 || q <= kWideNegInf / 2) continue;
      if (p + q - open_ + ext_ == total) {
        const int i1 = fwd.reach_arg[static_cast<std::size_t>(x)];
        const int i2 = bwd.reach_arg[static_cast<std::size_t>(cols - x)];
        const std::pair<int, int> p1{i1, pa.second + x};
        const std::pair<int, int> p2{i2, pa.second + x + 1};
        const Wide s1 = p - Wide{i1} * ext_;
        const Wide s2 = q + Wide{i2} * ext_;
        if (p1 != pa) {
          recurse(pa, p1, s1);
          out_->push_back(p1);
        } else {
          REPRO_CHECK(s1 == exchange(pa.first, pa.second));
        }
        if (p2 != pb) {
          out_->push_back(p2);
          recurse(p2, pb, s2);
        } else {
          REPRO_CHECK(s2 == exchange(pb.first, pb.second));
        }
        return;
      }
    }
    REPRO_CHECK_MSG(false, "pair-path reconstruction found no crossing at row "
                               << i_mid << " for score " << total);
  }

  std::span<const std::uint8_t> seq_;
  const seq::Scoring& scoring_;
  const OverrideTriangle* overrides_;
  int open_;
  int ext_;
  std::vector<std::pair<int, int>>* out_ = nullptr;
};

/// Anchored reverse pass: A(i, j) = the best score of any pair-path
/// *starting* at (i, j) and ending exactly at (i_end, j_end). A <= S
/// everywhere and A == S exactly at valid optimal start cells; the first
/// one in scan order is chosen. O(cols) memory.
std::pair<int, int> find_start_cell(const GroupJob& job, int i_end, int j_end,
                                    Score target) {
  const auto& seq = job.seq;
  const seq::ScoreMatrix& ex = job.scoring->matrix;
  const Score open = job.scoring->gap.open;
  const Score ext = job.scoring->gap.extend;
  const int rows = i_end + 1;           // reversed vertical: i = i_end - (y-1)
  const int cols = j_end - job.r0 + 1;  // reversed horizontal: j = j_end - (x-1)

  std::vector<Score> h(static_cast<std::size_t>(cols) + 1, kNegInf);
  std::vector<Score> max_y(static_cast<std::size_t>(cols) + 1, kNegInf);
  h[0] = 0;  // the single anchor: every path must begin with the end pair

  for (int y = 1; y <= rows; ++y) {
    const int i = i_end - (y - 1);
    const std::int16_t* erow = ex.row(seq[static_cast<std::size_t>(i)]);
    Score diag = h[0];
    h[0] = kNegInf;  // the anchor exists only for cell (1, 1)
    Score max_x = kNegInf;
    for (int x = 1; x <= cols; ++x) {
      const int j = j_end - (x - 1);
      const Score up = h[static_cast<std::size_t>(x)];
      const Score inner =
          std::max({max_x, max_y[static_cast<std::size_t>(x)], diag});
      Score a = kNegInf;
      const bool forbidden =
          job.overrides != nullptr && job.overrides->contains(i, j);
      if (!forbidden && inner > kNegInf / 2)
        a = erow[seq[static_cast<std::size_t>(j)]] + inner;
      h[static_cast<std::size_t>(x)] = a;
      if (a == target) return {i, j};
      max_x = std::max(diag - open, max_x) - ext;
      max_y[static_cast<std::size_t>(x)] =
          std::max(diag - open, max_y[static_cast<std::size_t>(x)]) - ext;
      diag = up;
    }
  }
  REPRO_CHECK_MSG(false, "anchored reverse pass did not reach the target "
                         "score — inconsistent inputs");
  return {0, 0};  // unreachable
}

template <typename T>
Traceback linear_impl(const GroupJob& job, std::span<const T> original) {
  REPRO_CHECK(job.count == 1);
  const int m = static_cast<int>(job.seq.size());
  const int r = job.r0;

  // 1. Forward score-only pass: best valid end cell (shadow rejection).
  detail::RectangleRows dp(job);
  const std::vector<Score> bottom = dp.sweep();
  const BestEnd end = find_best_end(dp.columns(bottom), original);
  REPRO_CHECK_MSG(end.end_x != 0 && end.score > 0,
                  "linear traceback requested with no positive valid end cell "
                  "(r=" << r << ")");
  const int i_end = r - 1;
  const int j_end = r + end.end_x - 1;
  REPRO_CHECK(j_end < m);

  // 2. Anchored reverse pass: a start cell of an optimal path.
  const auto [i_start, j_start] = find_start_cell(job, i_end, j_end, end.score);

  Traceback tb;
  tb.r = r;
  tb.score = end.score;
  tb.end_x = end.end_x;
  if (i_start == i_end || j_start == j_end) {
    // Pairs strictly ascend in both components: same row or column means a
    // single-pair alignment.
    REPRO_CHECK(i_start == i_end && j_start == j_end);
    tb.pairs.emplace_back(i_end, j_end);
    return tb;
  }

  // 3. Checkpointed reconstruction between the two anchors.
  tb.pairs.emplace_back(i_start, j_start);
  PairPathReconstructor rec(job.seq, *job.scoring, job.overrides);
  rec.solve({i_start, j_start}, {i_end, j_end}, end.score, tb.pairs);
  tb.pairs.emplace_back(i_end, j_end);
  return tb;
}

}  // namespace

Traceback traceback_best_linear(const GroupJob& job,
                                std::span<const std::int16_t> original) {
  return linear_impl<std::int16_t>(job, original);
}

Traceback traceback_best_linear(const GroupJob& job,
                                std::span<const Score> original) {
  return linear_impl<Score>(job, original);
}

Traceback traceback_best_linear(const GroupJob& job) {
  return linear_impl<Score>(job, std::span<const Score>{});
}

}  // namespace repro::align
