#include "core/task_queue.hpp"

namespace repro::core {

std::vector<GroupTask> make_groups(int m, int lanes) {
  REPRO_CHECK_MSG(m >= 2, "sequence too short for top alignments");
  REPRO_CHECK(lanes >= 1);
  std::vector<GroupTask> groups;
  for (int r0 = 1; r0 <= m - 1; r0 += lanes)
    groups.emplace_back(r0, std::min(lanes, m - r0));
  return groups;
}

void GroupQueue::push(int group_index, TaskKey key) {
  const bool inserted = entries_.emplace(key, group_index).second;
  REPRO_CHECK_MSG(inserted, "group " << group_index << " already queued");
}

std::optional<int> GroupQueue::pop_best() {
  if (entries_.empty()) return std::nullopt;
  const auto head = *entries_.begin();
  entries_.erase(entries_.begin());
  pops_ += 1;
  // Best-first ordering (Fig. 5): nothing left in the queue may order
  // before the key just popped.
  REPRO_DCHECK_MSG(entries_.empty() ||
                       !entries_.begin()->first.before(head.first),
                   "queue head (score=" << entries_.begin()->first.score
                       << ", r=" << entries_.begin()->first.r
                       << ") orders before the popped key (score="
                       << head.first.score << ", r=" << head.first.r << ")");
  return head.second;
}

bool GroupQueue::pop(int group_index, TaskKey key) {
  if (entries_.erase({key, group_index}) == 0) return false;
  pops_ += 1;
  return true;
}

std::optional<std::pair<TaskKey, int>> GroupQueue::peek() const {
  if (entries_.empty()) return std::nullopt;
  return *entries_.begin();
}

}  // namespace repro::core
