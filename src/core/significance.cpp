#include "core/significance.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/top_alignment_finder.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace repro::core {

seq::Sequence shuffled(const seq::Sequence& s, std::uint64_t seed) {
  std::vector<std::uint8_t> codes(s.codes().begin(), s.codes().end());
  util::Rng rng(seed);
  for (std::size_t i = codes.size(); i > 1; --i)
    std::swap(codes[i - 1], codes[rng.below(i)]);
  return seq::Sequence(s.name() + "-shuffled", std::move(codes), s.alphabet());
}

align::Score score_threshold(const seq::Sequence& s, const seq::Scoring& scoring,
                             const SignificanceOptions& options) {
  REPRO_CHECK(options.samples >= 1);
  REPRO_CHECK(options.quantile > 0.0 && options.quantile <= 1.0);
  REPRO_CHECK(options.margin >= 1.0);

  std::vector<align::Score> null_scores;
  null_scores.reserve(static_cast<std::size_t>(options.samples));
  FinderOptions one;
  one.num_top_alignments = 1;
  const auto engine = align::make_engine(align::EngineKind::kSimdAuto);
  for (int k = 0; k < options.samples; ++k) {
    const seq::Sequence null_seq = shuffled(s, options.seed + static_cast<std::uint64_t>(k));
    const FinderResult res = find_top_alignments(null_seq, scoring, one, *engine);
    null_scores.push_back(res.tops.empty() ? 0 : res.tops.front().score);
  }
  std::sort(null_scores.begin(), null_scores.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(options.quantile * static_cast<double>(null_scores.size())) - 1);
  const align::Score q = null_scores[std::min(idx, null_scores.size() - 1)];
  return std::max<align::Score>(
      1, static_cast<align::Score>(std::ceil(options.margin * q)) + 1);
}

}  // namespace repro::core
