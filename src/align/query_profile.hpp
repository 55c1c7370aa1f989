// Cached per-residue score profiles (Farrar-style query profiles).
//
// The inner SIMD loop scores column j of row i via the exchange matrix:
// `ex.row(seq[i])[seq[j]]`. That double lookup is rebuilt implicitly on
// every sweep. A query profile flattens it once per (sequence, scoring)
// pair into `profile[a][j] = score(a, seq[j]) + bias`, so a sweep does one
// indexed load per cell and — for the unsigned u8 kernels — the bias is
// already folded in. Profiles persist inside the engine across realignment
// rounds and checkpoint resumes (each worker's engine sees the same
// sequence every sweep, so after the first build every later sweep is a
// profile hit).
//
// For unsigned Elem the bias is max(0, -min_score()): every biased entry is
// then in [0, bias + max_score], which must fit the element type for the
// profile to be feasible. Signed profiles use bias 0 and are always
// feasible (matrix entries are i16).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "align/engine.hpp"
#include "seq/scoring.hpp"
#include "util/aligned.hpp"

namespace repro::align {

template <typename Elem>
class QueryProfileT {
 public:
  /// Makes the profile current for (seq, scoring): a content match (sequence
  /// bytes, matrix entries, gap penalties — compared by value, never by
  /// address, so a recreated Scoring at a recycled address cannot alias a
  /// stale profile) counts a hit and returns false; anything else rebuilds,
  /// counts a build, and returns true. Callers use the rebuild signal to
  /// drop state derived from the old workload (e.g. sticky escalation sets).
  bool ensure(std::span<const std::uint8_t> seq, const seq::Scoring& scoring,
              PrecisionStats& stats) {
    if (matches(seq, scoring)) {
      ++stats.profile_hits;
      return false;
    }
    ++stats.profile_builds;
    seq_copy_.assign(seq.begin(), seq.end());
    const seq::ScoreMatrix& mat = scoring.matrix;
    n_ = mat.size();
    width_ = static_cast<int>(seq.size());
    matrix_copy_.assign(mat.row(0),
                        mat.row(0) + static_cast<std::size_t>(n_) * n_);
    gap_open_ = scoring.gap.open;
    gap_extend_ = scoring.gap.extend;
    max_score_ = mat.max_score();
    if constexpr (std::is_signed_v<Elem>) {
      bias_ = 0;
      feasible_ = true;
    } else {
      bias_ = std::max(0, -mat.min_score());
      feasible_ = bias_ + max_score_ <= std::numeric_limits<Elem>::max() &&
                  gap_open_ <= std::numeric_limits<Elem>::max() &&
                  gap_extend_ <= std::numeric_limits<Elem>::max();
    }
    if (!feasible_) {
      data_.clear();
      return true;
    }
    data_.resize(static_cast<std::size_t>(n_) * width_);
    for (int a = 0; a < n_; ++a) {
      const std::int16_t* row = mat.row(static_cast<std::uint8_t>(a));
      Elem* out = data_.data() + static_cast<std::size_t>(a) * width_;
      for (int j = 0; j < width_; ++j)
        out[j] = static_cast<Elem>(row[seq_copy_[static_cast<std::size_t>(j)]] +
                                   bias_);
    }
    return true;
  }

  /// False when the biased entries (or the gap penalties a kernel casts to
  /// Elem) cannot fit — possible only for unsigned Elem. Kernels must not be
  /// handed an infeasible profile.
  [[nodiscard]] bool feasible() const { return feasible_; }

  /// Bias folded into every entry (0 for signed Elem).
  [[nodiscard]] int bias() const { return bias_; }

  /// Largest raw matrix entry; with bias(), bounds one profile add.
  [[nodiscard]] int max_score() const { return max_score_; }

  /// Profile row for residue code `a`: width() biased entries, entry j
  /// scoring `a` against sequence position j.
  [[nodiscard]] const Elem* row(std::uint8_t a) const {
    return data_.data() + static_cast<std::size_t>(a) * width_;
  }

  /// Columns per row (= sequence length the profile was built for).
  [[nodiscard]] int width() const { return width_; }

 private:
  [[nodiscard]] bool matches(std::span<const std::uint8_t> seq,
                             const seq::Scoring& scoring) const {
    if (width_ != static_cast<int>(seq.size()) ||
        n_ != scoring.matrix.size() || gap_open_ != scoring.gap.open ||
        gap_extend_ != scoring.gap.extend)
      return false;
    if (!seq_copy_.empty() &&
        std::memcmp(seq_copy_.data(), seq.data(), seq_copy_.size()) != 0)
      return false;
    return std::memcmp(matrix_copy_.data(), scoring.matrix.row(0),
                       matrix_copy_.size() * sizeof(std::int16_t)) == 0;
  }

  std::vector<std::uint8_t> seq_copy_;
  std::vector<std::int16_t> matrix_copy_;
  int gap_open_ = -1;
  int gap_extend_ = -1;
  int n_ = 0;
  int width_ = -1;
  int bias_ = 0;
  int max_score_ = 0;
  bool feasible_ = false;
  std::vector<Elem, util::AlignedAllocator<Elem>> data_;
};

}  // namespace repro::align
