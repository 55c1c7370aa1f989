#include "align/checkpoint_cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace repro::align {

PairDirtyIndex::PairDirtyIndex(std::span<const std::pair<int, int>> pairs) {
  // Accepted pair lists are ascending in both components, but the index is
  // built robustly against any list: sort by j, then a suffix minimum of i.
  std::vector<std::pair<int, int>> by_j(pairs.begin(), pairs.end());
  std::sort(by_j.begin(), by_j.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  j_.resize(by_j.size());
  suffix_min_i_.resize(by_j.size());
  int running = kNoDirtyRow;
  for (std::size_t t = by_j.size(); t-- > 0;) {
    j_[t] = by_j[t].second;
    running = std::min(running, by_j[t].first);
    suffix_min_i_[t] = running;
  }
}

int PairDirtyIndex::min_dirty_row(int r0) const {
  const auto it = std::lower_bound(j_.begin(), j_.end(), r0);
  if (it == j_.end()) return kNoDirtyRow;
  const auto t = static_cast<std::size_t>(it - j_.begin());
  return suffix_min_i_[t] + 1;  // pair (i, j) dirties DP rows >= i+1
}

std::optional<CheckpointView> CheckpointCache::find(int r0, bool plain_sweep,
                                                    int plain_valid_limit,
                                                    CheckpointRow& copy) {
  std::lock_guard lock(mutex_);
  const CheckpointRow* best = nullptr;
  const Entry* best_entry = nullptr;
  const auto consider = [&](const Entry& e, int row_limit) {
    // Rows are ascending; take the deepest one within the limit.
    for (auto it = e.rows.rbegin(); it != e.rows.rend(); ++it) {
      if (it->row > row_limit) continue;
      if (best == nullptr || it->row > best->row) {
        best = &*it;
        best_entry = &e;
      }
      break;
    }
  };
  if (const auto pit = entries_.find(Key{r0, true}); pit != entries_.end())
    consider(pit->second,
             plain_sweep ? std::numeric_limits<int>::max() : plain_valid_limit);
  if (!plain_sweep) {
    if (const auto oit = entries_.find(Key{r0, false}); oit != entries_.end())
      consider(oit->second, std::numeric_limits<int>::max());
  }
  if (best == nullptr) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  // Copy out: a store, eviction or invalidation may replace the cached row
  // while the caller's sweep still reads it.
  copy = *best;
  CheckpointView view;
  view.row = copy.row;
  view.lanes = best_entry->lanes;
  view.elem_size = best_entry->elem_size;
  view.h = copy.h.data();
  view.max_y = copy.max_y.data();
  view.bytes = copy.h.size();
  // Checkpoint-resume consistency: a usable view names a real DP row with
  // a stamped layout and equal-size H/MaxY buffers.
  REPRO_DCHECK(view.row >= 1 && view.lanes >= 1 && view.elem_size >= 1);
  REPRO_DCHECK(copy.h.size() == copy.max_y.size());
  return view;
}

void CheckpointCache::store(int r0, bool plain_class, Score priority,
                            CheckpointSink& sink) {
  std::lock_guard lock(mutex_);
  const Key key{r0, plain_class};
  const auto it = entries_.find(key);
  if (sink.count == 0) {
    if (it != entries_.end()) it->second.priority = priority;
    return;
  }
  Entry& e = it != entries_.end() ? it->second : entries_[key];
  REPRO_CHECK_MSG(e.rows.empty() || e.lanes == sink.lanes,
                  "checkpoint lane count changed mid-run for group r0=" << r0);
  if (e.elem_size != sink.elem_size) {
    // Escalation is per engine, so sweepers sharing the cache may sweep a
    // split in either precision: the entry takes the newest layout.
    bytes_ -= e.bytes;
    e = Entry{.lanes = sink.lanes, .elem_size = sink.elem_size};
  }
  e.priority = priority;
  for (int idx = 0; idx < sink.count; ++idx) {
    CheckpointRow& src = sink.rows[static_cast<std::size_t>(idx)];
    const auto pos = std::lower_bound(
        e.rows.begin(), e.rows.end(), src.row,
        [](const CheckpointRow& cr, int row) { return cr.row < row; });
    if (pos != e.rows.end() && pos->row == src.row) {
      // Same grid row re-emitted: swap buffers so the sink gets the old
      // (equal-capacity) storage back for its next sweep.
      bytes_ -= pos->bytes();
      std::swap(pos->h, src.h);
      std::swap(pos->max_y, src.max_y);
      bytes_ += pos->bytes();
      e.bytes += pos->bytes();
      e.bytes -= src.bytes();
    } else {
      CheckpointRow fresh;
      fresh.row = src.row;
      fresh.h = std::move(src.h);
      fresh.max_y = std::move(src.max_y);
      bytes_ += fresh.bytes();
      e.bytes += fresh.bytes();
      e.rows.insert(pos, std::move(fresh));
    }
  }
  if constexpr (check::kContractsEnabled) {
    // The merge must keep the entry's rows strictly ascending — find()'s
    // deepest-usable-row scan walks them back to front relying on it.
    for (std::size_t t = 1; t < e.rows.size(); ++t)
      REPRO_DCHECK_MSG(e.rows[t - 1].row < e.rows[t].row,
                       "checkpoint rows out of order for group r0=" << r0);
  }
  evict_over_budget(key);
}

void CheckpointCache::invalidate(int t, const PairDirtyIndex& dirty) {
  std::lock_guard lock(mutex_);
  REPRO_CHECK_MSG(t <= applied_, "acceptance " << t << " applied before "
                                               << applied_);
  if (t < applied_) return;  // another sweeper applied it first
  ++applied_;
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto& [key, e] = *it;
    if (key.second) {  // plain entries stay; find() clamps their validity
      ++it;
      continue;
    }
    const int md = dirty.min_dirty_row(key.first);
    auto& rows = e.rows;
    const auto first_dirty = std::lower_bound(
        rows.begin(), rows.end(), md,
        [](const CheckpointRow& cr, int row) { return cr.row < row; });
    for (auto rit = first_dirty; rit != rows.end(); ++rit) {
      bytes_ -= rit->bytes();
      e.bytes -= rit->bytes();
      ++stats_.invalidated_rows;
    }
    rows.erase(first_dirty, rows.end());
    // Every surviving overridden row must sit strictly below the
    // alignment's first dirty row; anything deeper could reflect override
    // bits added after the emitting sweep. Rows ascend: check the deepest.
    REPRO_DCHECK_MSG(rows.empty() || rows.back().row < md,
                     "invalidation left a dirty checkpoint row "
                         << rows.back().row << " (min dirty " << md
                         << ") for group r0=" << key.first);
    if (rows.empty()) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void CheckpointCache::clear(int t) {
  std::lock_guard lock(mutex_);
  entries_.clear();
  bytes_ = 0;
  applied_ = t;
}

void CheckpointCache::evict_over_budget(const Key& keep_last) {
  while (bytes_ > budget_ && !entries_.empty()) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (entries_.size() > 1 && it->first == keep_last) continue;
      if (victim == entries_.end() ||
          it->second.priority < victim->second.priority)
        victim = it;
    }
    REPRO_CHECK(victim != entries_.end());
    bytes_ -= victim->second.bytes;
    ++stats_.evictions;
    entries_.erase(victim);
  }
}

}  // namespace repro::align
