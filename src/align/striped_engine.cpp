// Cache-aware scalar kernel (§4.1 of the paper): the matrix is computed in
// vertical stripes whose row-state (previous row + MaxY) fits in L1, at the
// cost of carrying per-row (H, MaxX) values across stripe boundaries.
//
// Checkpoints use the same layout as the plain scalar engine (lanes = 1,
// elem = Score, full-width row state): the row state is striping-invariant,
// each stripe simply restores/emits its own slice. Stripe carries are never
// checkpointed — during a resumed sweep every carry of a computed row is
// written by an earlier stripe before a later stripe reads it; only each
// stripe's entry diagonal comes from the checkpoint.
#include <algorithm>
#include <cstring>
#include <vector>

#include "align/engine_detail.hpp"
#include "align/override_triangle.hpp"

namespace repro::align {
namespace {

// Default stripe width: a third of a typical 32 KiB L1D for row state
// (H + MaxY, 8 bytes per column), mirroring the paper's "a third for the row
// section, a third for MaxY, a third for miscellaneous".
constexpr int kDefaultStripeCols = 1344;

class ScalarStripedEngine final : public Engine {
 public:
  explicit ScalarStripedEngine(int stripe_cols)
      : stripe_cols_(stripe_cols == 0 ? kDefaultStripeCols : stripe_cols) {
    REPRO_CHECK_MSG(stripe_cols_ > 0 || stripe_cols_ == -1,
                    "invalid stripe width " << stripe_cols_);
  }

  [[nodiscard]] std::string name() const override { return "scalar-striped"; }
  [[nodiscard]] int lanes() const override { return 1; }
  [[nodiscard]] bool supports_checkpoints() const override { return true; }
  [[nodiscard]] bool bands(int /*m*/) const override { return false; }

 protected:
  void do_align(const GroupJob& job,
                std::span<const std::span<Score>> out) override {
    detail::validate_job(job, out, lanes());
    const auto& seq = job.seq;
    const int m = static_cast<int>(seq.size());
    const int r = job.r0;
    const int rows = r;
    const int cols = m - r;
    const seq::ScoreMatrix& ex = job.scoring->matrix;
    const Score open = job.scoring->gap.open;
    const Score ext = job.scoring->gap.extend;
    const int stripe = stripe_cols_ == -1 ? cols : stripe_cols_;
    const std::size_t state_bytes =
        static_cast<std::size_t>(cols) * sizeof(Score);

    int y_begin = 1;
    const Score* ck_h = nullptr;
    const Score* ck_my = nullptr;
    if (job.resume != nullptr) {
      const CheckpointView& ck = *job.resume;
      REPRO_CHECK_MSG(ck.lanes == 1 &&
                          ck.elem_size == static_cast<int>(sizeof(Score)) &&
                          ck.bytes == state_bytes && ck.row >= 1 && ck.row < r,
                      "checkpoint state does not match the striped scalar "
                      "kernel (r=" << r << ")");
      ck_h = reinterpret_cast<const Score*>(ck.h);
      ck_my = reinterpret_cast<const Score*>(ck.max_y);
      y_begin = ck.row + 1;
    }
    const bool resumed = y_begin > 1;

    CheckpointSink* sink = job.sink;
    if (sink != nullptr) {
      REPRO_CHECK(sink->stride >= 1);
      sink->lanes = 1;
      sink->elem_size = static_cast<int>(sizeof(Score));
      sink->prepare(y_begin, std::min(sink->top_row, r - 1), state_bytes);
    }

    // Carries across stripe boundaries, indexed by row: H at the stripe's
    // last column and the running MaxX leaving the stripe. Grow-only: every
    // carry of a computed row is written by an earlier stripe before a later
    // stripe reads it (the stripe-0 carry_h read feeds a diagonal only used
    // by later stripes).
    if (carry_h_.size() < static_cast<std::size_t>(rows) + 1) {
      carry_h_.resize(static_cast<std::size_t>(rows) + 1);
      carry_mx_.resize(static_cast<std::size_t>(rows) + 1);
    }

    h_.resize(static_cast<std::size_t>(stripe) + 1);
    max_y_.resize(static_cast<std::size_t>(stripe) + 1);

    for (int x0 = 1; x0 <= cols; x0 += stripe) {
      const int x1 = std::min(cols, x0 + stripe - 1);
      Score old_carry_above;
      if (resumed) {
        // Stripe-local state of row y_begin-1, straight from the checkpoint
        // (buffer index x-1 holds column x).
        std::memcpy(h_.data() + 1, ck_h + (x0 - 1),
                    static_cast<std::size_t>(x1 - x0 + 1) * sizeof(Score));
        std::memcpy(max_y_.data() + 1, ck_my + (x0 - 1),
                    static_cast<std::size_t>(x1 - x0 + 1) * sizeof(Score));
        old_carry_above = x0 == 1 ? 0 : ck_h[x0 - 2];
      } else {
        std::fill(h_.begin(), h_.end(), 0);
        std::fill(max_y_.begin(), max_y_.end(), kNegInf);
        // carry of the boundary row y=0 is all-zero H, -inf MaxX.
        old_carry_above = 0;
      }
      int emit_idx = 0;
      for (int y = y_begin; y <= rows; ++y) {
        const int i = y - 1;
        const std::int16_t* erow = ex.row(seq[static_cast<std::size_t>(i)]);
        const std::atomic<std::uint64_t>* obits =
            (job.overrides != nullptr && !job.overrides->row_empty(i))
                ? job.overrides->row_bits(i)
                : nullptr;
        // Entering this stripe: diag = M[y-1][x0-1], MaxX as it left the
        // previous stripe on *this* row.
        Score diag = x0 == 1 ? 0 : old_carry_above;
        Score max_x = x0 == 1 ? kNegInf
                              : carry_mx_[static_cast<std::size_t>(y)];
        for (int x = x0; x <= x1; ++x) {
          const int xi = x - x0 + 1;  // stripe-local column
          const int j = r + x - 1;
          const Score up = h_[static_cast<std::size_t>(xi)];
          const Score old_my = max_y_[static_cast<std::size_t>(xi)];
          const Score inner = std::max({max_x, old_my, diag});
          Score h = std::max(Score{0},
                             erow[seq[static_cast<std::size_t>(j)]] + inner);
          if (obits != nullptr && detail::override_bit(obits, i, j)) h = 0;
          h_[static_cast<std::size_t>(xi)] = h;
          const Score next_mx = std::max(diag - open, max_x) - ext;
          const Score next_my = std::max(diag - open, old_my) - ext;
          if constexpr (check::kContractsEnabled) {
            // Same kernel cell contracts as the plain scalar engine; the
            // striping (carries included) must not change any cell value.
            REPRO_DCHECK_MSG(h >= 0, "negative H at (y=" << y << ", x=" << x
                                                         << "), r=" << r);
            REPRO_DCHECK(next_mx + ext >= max_x);
            REPRO_DCHECK(next_my + ext >= old_my);
          }
          max_x = next_mx;
          max_y_[static_cast<std::size_t>(xi)] = next_my;
          diag = up;
          if (y == rows) out[0][static_cast<std::size_t>(x - 1)] = h;
        }
        old_carry_above = carry_h_[static_cast<std::size_t>(y)];
        carry_h_[static_cast<std::size_t>(y)] =
            h_[static_cast<std::size_t>(x1 - x0 + 1)];
        carry_mx_[static_cast<std::size_t>(y)] = max_x;
        if (sink != nullptr && emit_idx < sink->count &&
            y == sink->rows[static_cast<std::size_t>(emit_idx)].row) {
          CheckpointRow& cr = sink->rows[static_cast<std::size_t>(emit_idx)];
          const std::size_t off =
              static_cast<std::size_t>(x0 - 1) * sizeof(Score);
          const std::size_t len =
              static_cast<std::size_t>(x1 - x0 + 1) * sizeof(Score);
          std::memcpy(cr.h.data() + off, h_.data() + 1, len);
          std::memcpy(cr.max_y.data() + off, max_y_.data() + 1, len);
          ++emit_idx;
        }
      }
    }
  }

 private:
  int stripe_cols_;
  std::vector<Score> h_;
  std::vector<Score> max_y_;
  std::vector<Score> carry_h_;
  std::vector<Score> carry_mx_;
};

}  // namespace

namespace detail {
std::unique_ptr<Engine> make_scalar_striped_engine(int stripe_cols) {
  return std::make_unique<ScalarStripedEngine>(stripe_cols);
}
}  // namespace detail

}  // namespace repro::align
