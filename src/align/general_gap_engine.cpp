// The Eq.-1 kernel evaluated literally: each cell takes the maximum over the
// entire row to its left and the entire column above it, with a
// length-dependent gap penalty — O(n) work per cell and O(n^2) state.
//
// This is the per-cell cost model of the *old* (1993) Repro algorithm and
// the source of its O(n^4) total runtime (the paper, footnote 2 and §3); the
// new algorithm's affine running maxima (Fig. 3) reduce it to O(1) per cell.
// With affine penalties both kernels produce identical matrices, which is
// how the old/new equivalence tests work.
#include <algorithm>
#include <vector>

#include "align/engine_detail.hpp"
#include "align/override_triangle.hpp"

namespace repro::align {
namespace {

class GeneralGapEngine final : public Engine {
 public:
  [[nodiscard]] std::string name() const override { return "general-gap"; }
  [[nodiscard]] int lanes() const override { return 1; }
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
    const seq::GapPenalty& gap = job.scoring->gap;

    const std::size_t w = static_cast<std::size_t>(cols) + 1;
    matrix_.assign((static_cast<std::size_t>(rows) + 1) * w, 0);

    for (int y = 1; y <= rows; ++y) {
      const int i = y - 1;
      const std::int16_t* erow = ex.row(seq[static_cast<std::size_t>(i)]);
      const std::atomic<std::uint64_t>* obits =
          (job.overrides != nullptr && !job.overrides->row_empty(i))
              ? job.overrides->row_bits(i)
              : nullptr;
      Score* cur = matrix_.data() + static_cast<std::size_t>(y) * w;
      const Score* prev = cur - w;
      for (int x = 1; x <= cols; ++x) {
        const int j = r + x - 1;
        // Eq. 1: best of the no-gap diagonal, every horizontal gap, and
        // every vertical gap, each charged its length-dependent penalty.
        Score inner = prev[x - 1];
        for (int g = 1; g <= x - 1; ++g)
          inner = std::max(inner, prev[x - 1 - g] - gap.cost(g));
        for (int g = 1; g <= y - 1; ++g)
          inner = std::max(
              inner,
              matrix_[static_cast<std::size_t>(y - 1 - g) * w +
                      static_cast<std::size_t>(x - 1)] -
                  gap.cost(g));
        Score h =
            std::max(Score{0}, erow[seq[static_cast<std::size_t>(j)]] + inner);
        if (obits != nullptr && detail::override_bit(obits, i, j)) h = 0;
        cur[x] = h;
      }
    }

    const Score* bottom = matrix_.data() + static_cast<std::size_t>(rows) * w;
    std::copy(bottom + 1, bottom + 1 + cols, out[0].begin());
  }

 private:
  std::vector<Score> matrix_;
};

}  // namespace

namespace detail {
std::unique_ptr<Engine> make_general_gap_engine() {
  return std::make_unique<GeneralGapEngine>();
}
}  // namespace detail

}  // namespace repro::align
