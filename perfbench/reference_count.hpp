// The cells an exact top-alignment search needs on an input, counted by a
// search that belongs to the benchmark. The end-to-end times are given per
// billion of these cells; because the library's finders do not produce the
// count, a change to their realignment or checkpoint policy moves the times
// and leaves the count alone.
//
// The search is the paper's lazy best-first loop over single rectangles:
// pop the rectangle with the highest score (ties to the smaller split); if
// its score was computed under the current override triangle, accept its
// top alignment, else bring it up to date and push it back. The count is
//
//   (m^3 - m)/6                      the first sweep, every rectangle once
// + (r - i) * (m - r) per update     the rows from the first one the pairs
//                                    accepted since the last update touch
//
// where pair (i, j) lies in rectangle r when i < r <= j, and an update that
// no new pair touches costs nothing: the rectangle's score still holds.
// That is the least any exact search with perfect checkpoints recomputes
// under this schedule; it depends on the input and the scoring only.
//
// Scores come from an i32-lane engine (no saturation, no precision ladder;
// AVX2, else the portable one). The tops the search accepts are what every
// timed finder call is checked against; a traced run also checks them
// against the scalar engine's sequential tops.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "align/traceback.hpp"
#include "core/top_alignment.hpp"

namespace perfbench {

struct ReferenceSearch {
  std::vector<repro::core::TopAlignment> tops;
  std::uint64_t cells = 0;
};

inline ReferenceSearch reference_search(const repro::seq::Sequence& s,
                                        const repro::seq::Scoring& scoring,
                                        int num_tops) {
  namespace align = repro::align;
  const std::unique_ptr<align::Engine> engine = [] {
    try {
      return align::make_engine(align::EngineKind::kSimd8x32);
    } catch (const std::exception&) {  // no AVX2: same scores, slower
      return align::make_engine(align::EngineKind::kSimd4x32Generic);
    }
  }();
  const int m = s.length();
  const int lanes = engine->lanes();
  const auto mm = static_cast<std::uint64_t>(m);
  ReferenceSearch out;
  out.cells = (mm * mm * mm - mm) / 6;

  align::OverrideTriangle triangle(m);
  std::vector<std::vector<align::Score>> original(static_cast<std::size_t>(m));
  std::vector<align::Score> score(static_cast<std::size_t>(m), 0);
  std::vector<int> version(static_cast<std::size_t>(m), 0);
  // A group update scores every lane; members keep their score until popped.
  std::vector<align::Score> lane_score(static_cast<std::size_t>(m), 0);
  std::vector<int> lane_version(static_cast<std::size_t>(m), -1);
  std::vector<std::vector<std::pair<int, int>>> accepted;  // pairs per version

  // Aligns the group of `lanes` consecutive splits holding r under the
  // current triangle (nullptr: the empty one) and hands each row to `take`.
  const auto align_group = [&](int r, const align::OverrideTriangle* tri,
                               auto&& take) {
    const int r0 = 1 + (r - 1) / lanes * lanes;
    const int count = std::min(lanes, m - r0);
    std::vector<std::vector<align::Score>> rows(static_cast<std::size_t>(count));
    std::vector<std::span<align::Score>> spans;
    for (int k = 0; k < count; ++k) {
      rows[static_cast<std::size_t>(k)].resize(static_cast<std::size_t>(m - r0 - k));
      spans.emplace_back(rows[static_cast<std::size_t>(k)]);
    }
    align::GroupJob job;
    job.seq = s.codes();
    job.scoring = &scoring;
    job.overrides = tri;
    job.r0 = r0;
    job.count = count;
    engine->align(job, spans);
    for (int k = 0; k < count; ++k)
      take(r0 + k, std::move(rows[static_cast<std::size_t>(k)]));
  };

  for (int r = 1; r < m; r += lanes)
    align_group(r, nullptr, [&](int split, std::vector<align::Score> row) {
      const auto k = static_cast<std::size_t>(split);
      score[k] = align::find_best_end(row).score;
      original[k] = std::move(row);
    });

  using Entry = std::pair<align::Score, int>;  // (score, split)
  const auto later = [](const Entry& a, const Entry& b) {
    return a.first != b.first ? a.first < b.first : a.second > b.second;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(later)> queue(later);
  for (int r = 1; r < m; ++r) queue.push({score[static_cast<std::size_t>(r)], r});

  while (static_cast<int>(out.tops.size()) < num_tops && !queue.empty()) {
    const int r = queue.top().second;
    queue.pop();
    const auto k = static_cast<std::size_t>(r);
    const int current = static_cast<int>(accepted.size());
    if (version[k] == current) {
      align::GroupJob job;
      job.seq = s.codes();
      job.scoring = &scoring;
      job.overrides = &triangle;
      job.r0 = r;
      job.count = 1;
      const align::Traceback tb =
          align::traceback_best(job, std::span<const align::Score>(original[k]));
      for (const auto& [i, j] : tb.pairs) triangle.set(i, j);
      out.tops.push_back({tb.r, tb.score, tb.end_x, tb.pairs});
      accepted.push_back(tb.pairs);
    } else {
      int first = r;  // first touched pair row; r = untouched
      for (int v = version[k]; v < current; ++v)
        for (const auto& [i, j] : accepted[static_cast<std::size_t>(v)])
          if (i < r && r <= j) first = std::min(first, i);
      if (first < r) {
        out.cells += static_cast<std::uint64_t>(r - first) *
                     static_cast<std::uint64_t>(m - r);
        if (lane_version[k] != current)
          align_group(r, &triangle, [&](int split, std::vector<align::Score> row) {
            const auto q = static_cast<std::size_t>(split);
            lane_score[q] =
                align::find_best_end(
                    row, std::span<const align::Score>(original[q]))
                    .score;
            lane_version[q] = current;
          });
        score[k] = lane_score[k];
      }
      version[k] = current;
    }
    queue.push({score[k], r});
  }
  return out;
}

}  // namespace perfbench
