#include "cluster/oracle.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace repro::cluster {

AlignmentOracle::AlignmentOracle(const seq::Sequence& s,
                                 const seq::Scoring& scoring,
                                 align::Engine& engine)
    : s_(s),
      scoring_(scoring),
      engine_(engine),
      triangle_(s.length()),
      rows_(s.length()),
      sweeper_(s, scoring, options_, triangle_, engine, /*cache=*/nullptr,
               core::RowSource{&rows_, {}}) {}

void AlignmentOracle::begin_run() {
  triangle_.clear();
  version_ = 0;
}

const std::vector<align::Score>& AlignmentOracle::member_scores(
    int gi, int expected_version) {
  REPRO_CHECK_MSG(expected_version == version_,
                  "oracle asked for version " << expected_version
                                              << " but triangle is at "
                                              << version_);
  const auto key = std::make_pair(gi, version_);
  if (const auto it = cache_.find(key); it != cache_.end()) return it->second;
  const int r0 = 1 + gi * lanes();
  const int count = std::min(lanes(), s_.length() - r0);
  const auto scores = sweeper_.sweep(r0, count, version_);
  ++computed_;
  return cache_.emplace(key, std::vector(scores.begin(), scores.end()))
      .first->second;
}

const core::TopAlignment& AlignmentOracle::accept(const core::Search& search,
                                                  const core::Acceptance& a) {
  if (static_cast<std::size_t>(version_) == accepted_.size())
    accepted_.push_back(search.trace(a, rows_.row(a.r)));
  // The acceptance sequence is version-deterministic: replays must agree.
  const core::TopAlignment& top = accepted_[static_cast<std::size_t>(version_)];
  REPRO_CHECK_MSG(top.r == a.r && top.score == a.expected,
                  "replayed acceptance diverged at version " << version_);
  for (const auto& [i, j] : top.pairs) triangle_.set(i, j);
  ++version_;
  return top;
}

}  // namespace repro::cluster
