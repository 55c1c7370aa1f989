// The conventional (non-SIMD) score-only kernel: the Fig.-3 recurrence with
// running gap maxima, one row of state, O(1) work per cell.
//
// Checkpoint layout (lanes = 1, elem = Score): the h/max_y buffers hold the
// cols values for x = 1..cols at byte offset (x-1)*sizeof(Score) — exactly
// the kernel's row state minus the constant boundary column. The same layout
// is produced by the striped scalar engine (row state is striping-invariant),
// so their checkpoints are interchangeable.
#include <algorithm>
#include <cstring>
#include <vector>

#include "align/engine_detail.hpp"
#include "align/override_triangle.hpp"

namespace repro::align {
namespace {

class ScalarEngine final : public Engine {
 public:
  [[nodiscard]] std::string name() const override { return "scalar"; }
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
    const int rows = r;       // prefix S[0..r)
    const int cols = m - r;   // suffix S[r..m)
    const seq::ScoreMatrix& ex = job.scoring->matrix;
    const Score open = job.scoring->gap.open;
    const Score ext = job.scoring->gap.extend;
    const std::size_t state_bytes =
        static_cast<std::size_t>(cols) * sizeof(Score);

    int y_begin = 1;
    if (job.resume != nullptr) {
      const CheckpointView& ck = *job.resume;
      REPRO_CHECK_MSG(ck.lanes == 1 &&
                          ck.elem_size == static_cast<int>(sizeof(Score)) &&
                          ck.bytes == state_bytes && ck.row >= 1 && ck.row < r,
                      "checkpoint state does not match the scalar kernel "
                      "(r=" << r << ")");
      h_.resize(static_cast<std::size_t>(cols) + 1);
      max_y_.resize(static_cast<std::size_t>(cols) + 1);
      h_[0] = 0;
      max_y_[0] = kNegInf;
      std::memcpy(h_.data() + 1, ck.h, state_bytes);
      std::memcpy(max_y_.data() + 1, ck.max_y, state_bytes);
      y_begin = ck.row + 1;
      if constexpr (check::kContractsEnabled) {
        // Checkpoint-resume consistency: restored H is a clamped local-
        // alignment row, so every column is nonnegative.
        for (int x = 1; x <= cols; ++x)
          REPRO_DCHECK_MSG(h_[static_cast<std::size_t>(x)] >= 0,
                           "restored checkpoint row " << ck.row
                               << " holds a negative H at column " << x);
      }
    } else {
      h_.assign(static_cast<std::size_t>(cols) + 1, 0);
      max_y_.assign(static_cast<std::size_t>(cols) + 1, kNegInf);
    }

    CheckpointSink* sink = job.sink;
    if (sink != nullptr) {
      REPRO_CHECK(sink->stride >= 1);
      sink->lanes = 1;
      sink->elem_size = static_cast<int>(sizeof(Score));
      sink->prepare(y_begin, std::min(sink->top_row, r - 1), state_bytes);
    }
    int emit_idx = 0;

    for (int y = y_begin; y <= rows; ++y) {
      const int i = y - 1;  // global prefix position
      const std::int16_t* erow = ex.row(seq[static_cast<std::size_t>(i)]);
      const std::atomic<std::uint64_t>* obits =
          (job.overrides != nullptr && !job.overrides->row_empty(i))
              ? job.overrides->row_bits(i)
              : nullptr;
      Score diag = 0;  // M[y-1][x-1]; boundary column is all zeros
      Score max_x = kNegInf;
      for (int x = 1; x <= cols; ++x) {
        const int j = r + x - 1;  // global suffix position
        const Score up = h_[static_cast<std::size_t>(x)];
        const Score old_my = max_y_[static_cast<std::size_t>(x)];
        const Score inner = std::max({max_x, old_my, diag});
        Score h = std::max(
            Score{0}, erow[seq[static_cast<std::size_t>(j)]] + inner);
        if (obits != nullptr && detail::override_bit(obits, i, j)) h = 0;
        h_[static_cast<std::size_t>(x)] = h;
        const Score next_mx = std::max(diag - open, max_x) - ext;
        const Score next_my = std::max(diag - open, old_my) - ext;
        if constexpr (check::kContractsEnabled) {
          // Kernel cell contracts: local-alignment H never goes negative,
          // and the running gap maxima decay at most `extend` per step
          // (anything faster would lose reachable gap continuations).
          REPRO_DCHECK_MSG(h >= 0, "negative H at (y=" << y << ", x=" << x
                                                       << "), r=" << r);
          REPRO_DCHECK(next_mx + ext >= max_x);
          REPRO_DCHECK(next_my + ext >= old_my);
        }
        max_x = next_mx;
        max_y_[static_cast<std::size_t>(x)] = next_my;
        diag = up;
      }
      if (sink != nullptr && emit_idx < sink->count &&
          y == sink->rows[static_cast<std::size_t>(emit_idx)].row) {
        CheckpointRow& cr = sink->rows[static_cast<std::size_t>(emit_idx)];
        std::memcpy(cr.h.data(), h_.data() + 1, state_bytes);
        std::memcpy(cr.max_y.data(), max_y_.data() + 1, state_bytes);
        ++emit_idx;
      }
    }

    std::copy(h_.begin() + 1, h_.begin() + 1 + cols, out[0].begin());
  }

 private:
  std::vector<Score> h_;
  std::vector<Score> max_y_;
};

}  // namespace

namespace detail {
std::unique_ptr<Engine> make_scalar_engine() {
  return std::make_unique<ScalarEngine>();
}
}  // namespace detail

}  // namespace repro::align
