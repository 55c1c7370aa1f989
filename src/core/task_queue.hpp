// Group task bookkeeping and the best-first queue (paper Fig. 5 and §4.1).
//
// Rectangles are scheduled in fixed groups of L consecutive splits (L = the
// engine's SIMD lane count; L = 1 degenerates to the paper's Fig.-5
// per-rectangle queue). Each member carries the score of its most recent
// alignment — an upper bound once the override triangle has grown — and the
// triangle version it was aligned against. A group's queue key is its best
// member's (score, split), so popping the queue yields exactly the task the
// sequential Fig.-5 algorithm would pick, independent of grouping.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "align/types.hpp"
#include "util/check.hpp"

namespace repro::core {

/// Sentinel "never aligned" score; orders above any real score (Fig. 5 line 4).
inline constexpr align::Score kScoreInf = align::Score{1} << 29;

/// Queue ordering key: higher score first, then smaller split.
struct TaskKey {
  align::Score score = 0;
  int r = 0;

  /// True when *this orders before (is preferred over) `o`.
  [[nodiscard]] bool before(const TaskKey& o) const {
    return score != o.score ? score > o.score : r < o.r;
  }
};

/// One group of consecutive splits with per-member alignment state.
struct GroupTask {
  int r0 = 1;
  int count = 1;
  std::vector<align::Score> score;  ///< per member; kScoreInf = never aligned
  std::vector<int> version;         ///< triangle version of last alignment; -1 = never

  GroupTask(int r0_, int count_)
      : r0(r0_),
        count(count_),
        score(static_cast<std::size_t>(count_), kScoreInf),
        version(static_cast<std::size_t>(count_), -1) {}

  /// Best member: maximum score, ties to the smallest split. This is the
  /// member the Fig.-5 task queue would pop first.
  [[nodiscard]] int best_member() const {
    int best = 0;
    for (int k = 1; k < count; ++k)
      if (score[static_cast<std::size_t>(k)] > score[static_cast<std::size_t>(best)])
        best = k;
    return best;
  }

  [[nodiscard]] TaskKey key() const {
    const int b = best_member();
    return {score[static_cast<std::size_t>(b)], r0 + b};
  }
};

/// Builds the fixed group partition for a sequence of length m: groups of
/// `lanes` consecutive splits 1..m-1 (the last group may be partial).
std::vector<GroupTask> make_groups(int m, int lanes);

/// Ordered queue of group indices, keyed by the groups' current TaskKeys.
/// Groups must be re-inserted after any state mutation (pop, mutate, push).
class GroupQueue {
 public:
  void push(int group_index, TaskKey key);

  /// Pops the overall best group; nullopt when empty.
  std::optional<int> pop_best();

  /// Pops the best group for which `stale(index)` holds, skipping better
  /// up-to-date groups (the shared-memory scheduler's speculative pick).
  template <typename Pred>
  std::optional<int> pop_best_if(Pred&& stale) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (stale(it->second)) {
        const int g = it->second;
        entries_.erase(it);
        pops_ += 1;
        return g;
      }
    }
    return std::nullopt;
  }

  /// Pops group `group_index`, queued under `key`; false when it is not
  /// queued.
  bool pop(int group_index, TaskKey key);
  /// True when group `group_index` is queued under `key`.
  [[nodiscard]] bool contains(int group_index, TaskKey key) const {
    return entries_.count({key, group_index}) != 0;
  }

  /// Key and group index of the current head; nullopt when empty.
  [[nodiscard]] std::optional<std::pair<TaskKey, int>> peek() const;
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Lifetime pop count. A plain integer: every caller already serializes
  /// queue access.
  [[nodiscard]] std::uint64_t pops() const { return pops_; }

 private:
  struct Cmp {
    bool operator()(const std::pair<TaskKey, int>& a,
                    const std::pair<TaskKey, int>& b) const {
      if (a.first.before(b.first)) return true;
      if (b.first.before(a.first)) return false;
      return a.second < b.second;
    }
  };
  std::set<std::pair<TaskKey, int>, Cmp> entries_;
  std::uint64_t pops_ = 0;
};

}  // namespace repro::core
