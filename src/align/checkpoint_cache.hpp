// Checkpoint-resume realignment cache.
//
// The override triangle only ever grows, so when a rectangle is realigned
// every DP row above the topmost newly-overridden pair is bit-identical to
// the previous sweep. Kernels therefore emit their interleaved (H, MaxY) row
// state on a coarse grid (CheckpointSink), this cache keeps those rows per
// group under a global byte budget, and the finder resumes subsequent sweeps
// below the deepest row that is still clean — turning an O(r x n)
// realignment into O((r - i_min) x n).
//
// Validity model (all rows are 1-based DP rows of the group's rectangles):
//   * A checkpoint taken by an *overridden* sweep reflects the triangle at
//     the time of the sweep. Row y depends only on override bits of pairs
//     (i, j) with i <= y-1 and j >= r0; invalidate() drops rows >= the
//     accepted alignment's min dirty row, so surviving overridden rows are
//     always current.
//   * A checkpoint taken by a *plain* (empty-triangle) sweep is permanently
//     valid for plain sweeps, and valid for overridden sweeps up to the
//     group's global clean limit (no accepted pair intersects rows above
//     it). find() takes that limit from the caller.
//
// One cache serves an address space: every sweeper of a sequential or
// thread run shares it under its lock (cluster ranks keep one each).
// Invariant: every overridden row is valid for the triangle of the last
// acceptance applied to it, and invalidate() applies each acceptance once,
// for whichever sweeper reaches it first. A sweeper that has seen v
// acceptances therefore resumes from a row valid for some T_a, v <= a <=
// live, and rows it stores must already be clean for every acceptance the
// cache has applied.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "align/types.hpp"

namespace repro::align {

/// Sorted index over one accepted alignment's (i, j) pair list, answering
/// "what is the smallest dirty DP row of the rectangle group at split r0?"
/// in O(log pairs). Shared by checkpoint invalidation and the low-memory
/// untouched-lane skip.
class PairDirtyIndex {
 public:
  static constexpr int kNoDirtyRow = std::numeric_limits<int>::max();

  PairDirtyIndex() = default;
  explicit PairDirtyIndex(std::span<const std::pair<int, int>> pairs);

  /// Smallest dirty DP row for rectangles with columns j >= r0: the minimum
  /// i+1 over pairs with j >= r0, or kNoDirtyRow when no pair reaches the
  /// group's columns. Rows y < min_dirty_row(r0) are unaffected by these
  /// pairs; lane r is untouched entirely iff min_dirty_row(r) > r.
  [[nodiscard]] int min_dirty_row(int r0) const;

  [[nodiscard]] bool empty() const { return j_.empty(); }

 private:
  std::vector<int> j_;             ///< ascending
  std::vector<int> suffix_min_i_;  ///< min i over pairs with index >= t
};

struct CheckpointCacheStats {
  std::uint64_t hits = 0;       ///< find() returned a usable checkpoint
  std::uint64_t misses = 0;     ///< find() had nothing usable
  std::uint64_t evictions = 0;  ///< group entries dropped by the byte budget
  std::uint64_t invalidated_rows = 0;  ///< rows dropped by triangle growth
};

class CheckpointCache {
 public:
  explicit CheckpointCache(std::size_t byte_budget) : budget_(byte_budget) {}

  /// Deepest usable checkpoint for a sweep of the group at r0, or nullopt.
  /// Plain sweeps consult only plain entries (always valid); overridden
  /// sweeps take the deeper of the overridden entry (kept current by
  /// invalidate()) and plain rows with row <= `plain_valid_limit` (the
  /// caller's global clean limit for this group). The row is copied into
  /// `copy` under the lock, and the view points into `copy`.
  [[nodiscard]] std::optional<CheckpointView> find(int r0, bool plain_sweep,
                                                   int plain_valid_limit,
                                                   CheckpointRow& copy);

  /// Merges a sweep's staged rows into the (r0, plain_class) entry —
  /// replacing same-row buffers by swap, so warm stores recycle storage —
  /// sets the entry's eviction priority to the group's current best score,
  /// and evicts lowest-priority entries while over budget. Consumes the
  /// sink's live prefix.
  void store(int r0, bool plain_class, Score priority, CheckpointSink& sink);

  /// Applies accepted alignment `t` (0-based) unless it already has been:
  /// every overridden entry drops its rows >= the alignment's min dirty row
  /// for that group. Plain entries are untouched (their validity is clamped
  /// at find() time instead). Acceptances apply in order.
  void invalidate(int t, const PairDirtyIndex& dirty);
  /// Forgets every row; acceptance `t` is the next to apply.
  void clear(int t);

  [[nodiscard]] std::size_t bytes() const {
    std::lock_guard lock(mutex_);
    return bytes_;
  }
  [[nodiscard]] CheckpointCacheStats stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }

 private:
  struct Entry {
    Score priority = 0;
    int lanes = 0;
    int elem_size = 0;
    std::size_t bytes = 0;
    std::vector<CheckpointRow> rows{};  ///< ascending by row
  };
  using Key = std::pair<int, bool>;  ///< (r0, plain_class)

  void evict_over_budget(const Key& keep_last);

  mutable std::mutex mutex_;
  const std::size_t budget_;
  std::size_t bytes_ = 0;
  int applied_ = 0;  ///< acceptances applied
  std::map<Key, Entry> entries_;
  CheckpointCacheStats stats_;
};

}  // namespace repro::align
