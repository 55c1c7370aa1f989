#include "core/search.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "align/traceback.hpp"
#include "util/check.hpp"

namespace repro::core {
namespace {

template <typename T>
TopAlignment trace_top(const Search& search, const Acceptance& a,
                       std::span<const T> original) {
  align::GroupJob job;
  job.seq = search.sequence().codes();
  job.scoring = &search.scoring();
  job.overrides = &search.triangle();
  job.r0 = a.r;
  job.count = 1;
  align::Traceback tb = align::traceback_best(job, original);
  REPRO_CHECK_MSG(tb.score == a.expected,
                  "acceptance score mismatch at r=" << a.r << ": queued "
                                                    << a.expected << ", traced "
                                                    << tb.score);
  TopAlignment top;
  top.r = a.r;
  top.score = tb.score;
  top.end_x = tb.end_x;
  top.pairs = std::move(tb.pairs);
  return top;
}

}  // namespace

// ------------------------------------------------------------------ Search

Search::Search(const seq::Sequence& s, const seq::Scoring& scoring,
               const FinderOptions& options, int lanes, bool runs)
    : s_(s),
      scoring_(scoring),
      options_(options),
      triangle_(s.length()),
      groups_(make_groups(s.length(), lanes)),
      runs_(runs) {
  REPRO_CHECK(options.min_score >= 1);
  REPRO_CHECK_MSG(&scoring.matrix.alphabet() == &s.alphabet(),
                  "scoring matrix alphabet does not match the sequence");
  for (std::size_t gi = 0; gi < groups_.size(); ++gi)
    queue_.push(static_cast<int>(gi), groups_[gi].key());
}

bool Search::done() const {
  return version() >= options_.num_top_alignments || exhausted_ ||
         (queue_.empty() && inflight_.empty());
}

/// Low-memory fast path: when no pair accepted since a stale member's
/// version reaches its rectangle, its row and score are provably unchanged,
/// so its version is bumped without a sweep.
bool Search::skip_untouched(GroupTask& g) {
  if (options_.memory != MemoryMode::kRecomputeRows ||
      options_.checkpoint_mem == 0)
    return false;
  for (int k = 0; k < g.count; ++k) {
    const int v = g.version[static_cast<std::size_t>(k)];
    if (v == version()) continue;
    if (v < 0) return false;
    const int r = g.r0 + k;
    for (int t = v; t < version(); ++t)
      if (dirty_[static_cast<std::size_t>(t)].min_dirty_row(r) <= r)
        return false;
  }
  for (int& v : g.version) {
    if (v == version()) continue;
    v = version();
    ++stats_.skipped_realignments;
  }
  return true;
}

std::optional<Acceptance> Search::begin_accept() {
  if (done()) return std::nullopt;
  const auto head = queue_.peek();
  if (!head) return std::nullopt;
  GroupTask& g = groups_[static_cast<std::size_t>(head->second)];
  if (stale(g) && !skip_untouched(g)) return std::nullopt;
  if (!inflight_.empty() && inflight_.begin()->before(head->first))
    return std::nullopt;
  if (head->first.score < options_.min_score) {
    exhausted_ = true;  // every bound is lower: nothing left can qualify
    return std::nullopt;
  }
  const auto popped = queue_.pop_best();
  REPRO_CHECK(popped && *popped == head->second);
  inflight_.insert(head->first);
  ++accepting_;
  return Acceptance{head->second, head->first.r, head->first.score,
                    head->first};
}

TopAlignment Search::trace(const Acceptance& a,
                           std::span<const std::int16_t> original) const {
  return trace_top(*this, a, original);
}

TopAlignment Search::trace(const Acceptance& a,
                           std::span<const align::Score> original) const {
  return trace_top(*this, a, original);
}

void Search::finish_accept(const Acceptance& a, TopAlignment top) {
  for (const auto& [i, j] : top.pairs) triangle_.set(i, j);
  tops_.push_back(std::move(top));
  // Acceptance order (§2.2): scores never increase down the top list.
  REPRO_DCHECK_MSG(tops_.size() < 2 ||
                       tops_.back().score <= tops_[tops_.size() - 2].score,
                   "acceptance " << tops_.size() - 1 << " (score "
                                 << tops_.back().score
                                 << ") outranks its predecessor");
  dirty_.emplace_back(std::span<const std::pair<int, int>>(tops_.back().pairs));
  ++stats_.tracebacks;
  --accepting_;
  release(a.bound);
  queue_.push(a.gi, groups_[static_cast<std::size_t>(a.gi)].key());
}

template <typename Pred>
std::optional<SweepOrder> Search::pop_sweep(Pred&& pick) {
  while (!done()) {
    const auto gi = queue_.pop_best_if(pick);
    if (!gi) break;
    GroupTask& g = groups_[static_cast<std::size_t>(*gi)];
    if (skip_untouched(g)) {
      queue_.push(*gi, g.key());
      continue;
    }
    return take(*gi);
  }
  return std::nullopt;
}

std::optional<SweepOrder> Search::begin_sweep(int last) {
  if (!runs_ || version() > 0)
    return pop_sweep([this](int i) {
      return stale(groups_[static_cast<std::size_t>(i)]);
    });
  if (done()) return std::nullopt;
  const int gi = next_first_sweep(last);
  if (gi < 0) return std::nullopt;
  REPRO_CHECK(queue_.pop(gi, groups_[static_cast<std::size_t>(gi)].key()));
  return take(gi);
}

std::optional<SweepOrder> Search::begin_sweep_any() {
  return pop_sweep([this](int i) {
    const GroupTask& g = groups_[static_cast<std::size_t>(i)];
    return std::any_of(g.version.begin(), g.version.end(),
                       [this](int v) { return v != version(); });
  });
}

bool Search::untaken(int gi) const {
  const GroupTask& g = groups_[static_cast<std::size_t>(gi)];
  return g.version.front() < 0 && queue_.contains(gi, g.key());
}

int Search::next_first_sweep(int last) const {
  const int n = static_cast<int>(groups_.size());
  if (last >= 0 && last + 1 < n && untaken(last + 1))
    return last + 1;  // the worker's own run
  // Split the longest untaken stretch; the first of equal ones.
  int head = -1;
  int longest = 0;
  for (int a = 0; a < n;) {
    int b = a;
    while (b < n && untaken(b)) ++b;
    if (b - a > longest) {
      longest = b - a;
      head = a;
    }
    a = b + 1;
  }
  if (head <= 0) return head;
  return head + longest / 2;
}

SweepOrder Search::take(int gi) {
  const GroupTask& g = groups_[static_cast<std::size_t>(gi)];
  const SweepOrder o{gi, g.r0, g.count, version(), g.key(),
                     /*exact=*/accepting_ == 0};
  inflight_.insert(o.bound);
  return o;
}

void Search::release(const TaskKey& bound) {
  const auto it = inflight_.find(bound);
  REPRO_CHECK(it != inflight_.end());
  inflight_.erase(it);
}

void Search::finish_sweep(const SweepOrder& o,
                          std::span<const align::Score> scores) {
  release(o.bound);
  GroupTask& g = groups_[static_cast<std::size_t>(o.gi)];
  REPRO_CHECK(static_cast<int>(scores.size()) == g.count);
  // With no acceptance under way since the order was taken, the sweep saw
  // exactly its version's triangle, so recomputing a current member must
  // reproduce its score.
  [[maybe_unused]] const bool exact =
      o.exact && accepting_ == 0 && version() == o.version;
  for (int k = 0; k < g.count; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    int& v = g.version[ks];
    if (v == -1) {
      // kScoreInf keys pin never-aligned groups above every real score, so
      // all first alignments precede the first acceptance.
      REPRO_CHECK(o.version == 0);
      ++stats_.first_alignments;
    } else {
      if (v == o.version) {
        ++stats_.speculative;  // recomputed although already current
      } else {
        ++stats_.realignments;
      }
      // Upper-bound property (Fig. 5): the triangle only removes scoring
      // mass, so a realignment can never raise a member's score.
      REPRO_DCHECK_MSG(scores[ks] <= g.score[ks],
                       "realignment raised r=" << g.r0 + k << " from "
                           << g.score[ks] << " to " << scores[ks]);
      REPRO_DCHECK_MSG(!exact || v != o.version || scores[ks] == g.score[ks],
                       "speculative recompute changed r=" << g.r0 + k);
    }
    g.score[ks] = scores[ks];
    v = o.version;
  }
  queue_.push(o.gi, g.key());
}

void Search::cancel_sweep(const SweepOrder& o) {
  release(o.bound);
  const GroupTask& g = groups_[static_cast<std::size_t>(o.gi)];
  // Only an applied result moves a group's key.
  REPRO_DCHECK(!g.key().before(o.bound) && !o.bound.before(g.key()));
  queue_.push(o.gi, g.key());
}

void Search::sync(Sweeper& sweeper) const {
  for (int t = sweeper.version(); t < version(); ++t)
    sweeper.invalidate(dirty_[static_cast<std::size_t>(t)]);
}

FinderResult Search::finish(std::span<Sweeper* const> sweepers,
                            double idle_seconds) {
  FinderResult res;
  res.stats = stats_;
  std::set<const align::CheckpointCache*> caches;
  for (const Sweeper* sw : sweepers) {
    sw->add_stats(res.stats);
    if (sw->cache() != nullptr) caches.insert(sw->cache());
  }
  for (const align::CheckpointCache* c : caches) {  // shared: count once
    const align::CheckpointCacheStats cs = c->stats();
    res.stats.ckpt_hits += cs.hits;
    res.stats.ckpt_misses += cs.misses;
    res.stats.ckpt_evictions += cs.evictions;
  }
  res.stats.queue_pops = queue_.pops();
  res.stats.idle_seconds = idle_seconds;
  res.stats.seconds = timer_.seconds();
  res.tops = std::move(tops_);
  return res;
}

// ----------------------------------------------------------------- Sweeper

Sweeper::Sweeper(const seq::Sequence& s, const seq::Scoring& scoring,
                 const FinderOptions& options,
                 const align::OverrideTriangle& triangle, align::Engine& engine,
                 align::CheckpointCache* cache, RowSource rows)
    : s_(s),
      scoring_(scoring),
      triangle_(triangle),
      engine_(engine),
      rows_(std::move(rows)),
      cache_(options.checkpoint_mem > 0 && engine.supports_checkpoints()
                 ? cache
                 : nullptr),
      out_rows_(static_cast<std::size_t>(engine.lanes())),
      plain_rows_(static_cast<std::size_t>(engine.lanes())),
      cells0_(engine.cells_computed()),
      prec0_(engine.precision_stats()) {}

Sweeper::Sweeper(const Search& search, align::Engine& engine,
                 align::CheckpointCache* cache, RowSource rows)
    : Sweeper(search.sequence(), search.scoring(), search.options(),
              search.triangle(), engine, cache, std::move(rows)) {}

void Sweeper::invalidate(align::PairDirtyIndex dirty) {
  if (cache_) cache_->invalidate(version(), dirty);
  dirty_.push_back(std::move(dirty));
}

void Sweeper::reset(int version, align::PairDirtyIndex cumulative) {
  REPRO_CHECK(version >= 1);
  if (cache_) cache_->clear(version);
  dirty_.clear();
  dirty_.push_back(std::move(cumulative));
  dirty_base_ = version - 1;
}

int Sweeper::attach(align::GroupJob& job, align::CheckpointSink& sink,
                    align::CheckpointRow& resume, align::CheckpointView& view,
                    bool plain, bool lookup) {
  if (!cache_) return 0;
  int resumed = 0;
  if (lookup) {
    // Plain rows serve an overridden sweep only above every accepted pair.
    int limit = std::numeric_limits<int>::max();
    if (!plain)
      for (const auto& d : dirty_)
        limit = std::min(limit, d.min_dirty_row(job.r0) - 1);
    if (const auto found = cache_->find(job.r0, plain, limit, resume)) {
      view = *found;
      job.resume = &view;
      resumed = view.row;
      // The kernel re-enters at row + 1, inside the group's row range.
      REPRO_DCHECK(view.row >= 1 && view.row < job.r0);
    }
  }
  // Checkpoint rows emitted per sweep: the grid stride is
  // ceil(rows / kCheckpointsPerSweep). The row just above the group is
  // always emitted as well, so untouched groups resume at full depth.
  constexpr int kCheckpointsPerSweep = 16;
  const int rows = job.r0 + job.count - 1;
  sink.stride = std::max(1, (rows + kCheckpointsPerSweep - 1) /
                               kCheckpointsPerSweep);
  sink.top_row = job.r0 - 1;
  job.sink = &sink;
  return resumed;
}

void Sweeper::prepare(std::vector<std::vector<align::Score>>& rows,
                      std::vector<std::span<align::Score>>& outs, int r0,
                      int count) {
  outs.resize(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    auto& row = rows[static_cast<std::size_t>(k)];
    row.resize(static_cast<std::size_t>(s_.length() - (r0 + k)));
    outs[static_cast<std::size_t>(k)] = row;
  }
}

std::span<const align::Score> Sweeper::sweep(int r0, int count, int version) {
  const bool realign = version > 0;
  align::GroupJob job;
  job.seq = s_.codes();
  job.scoring = &scoring_;
  job.overrides = realign ? &triangle_ : nullptr;
  job.r0 = r0;
  job.count = count;
  prepare(out_rows_, outs_, r0, count);
  // First alignments run under the empty triangle and are cached as plain
  // sweeps; nothing can be cached before them, so they skip the lookup.
  const int resumed =
      attach(job, sink_, resume_, view_, /*plain=*/!realign, realign);
  util::WallTimer timer;
  engine_.align(job, outs_);

  // Low-memory mode: recompute the empty-triangle originals with one extra
  // group sweep (only realignments pay this).
  swept_plain_ = realign && recompute();
  if (swept_plain_) {
    align::GroupJob plain = job;
    plain.overrides = nullptr;
    plain.resume = nullptr;
    prepare(plain_rows_, plain_outs_, r0, count);
    const int plain_resumed = attach(plain, plain_sink_, plain_resume_,
                                     plain_view_, /*plain=*/true, true);
    engine_.align(plain, plain_outs_);
    rows_swept_ += static_cast<std::uint64_t>(r0 + count - 1);
    rows_skipped_ += static_cast<std::uint64_t>(plain_resumed);
  }
  if (realign) {
    realign_seconds_ += timer.seconds();
    rows_swept_ += static_cast<std::uint64_t>(r0 + count - 1);
    rows_skipped_ += static_cast<std::uint64_t>(resumed);
  }

  scores_.resize(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    const int r = r0 + k;
    const std::span<const align::Score> row = out_rows_[ks];
    if (!realign) {
      if (rows_.archive != nullptr) rows_.archive->store(r, row);
      scores_[ks] = align::find_best_end(row).score;
    } else if (swept_plain_) {
      const std::span<const align::Score> original = plain_rows_[ks];
      scores_[ks] = align::find_best_end(row, original).score;
    } else {
      scores_[ks] = align::find_best_end(row, archived(r)).score;
    }
  }
  swept_r0_ = r0;
  swept_version_ = version;
  return scores_;
}

void Sweeper::commit() {
  if (!cache_) return;
  // Rows at or past the first row an acceptance since the sweep's version
  // dirties may reflect override bits set while the sweep ran.
  int md = align::PairDirtyIndex::kNoDirtyRow;
  for (int t = std::max(swept_version_, dirty_base_); t < version(); ++t)
    md = std::min(md, dirty_[static_cast<std::size_t>(t - dirty_base_)]
                          .min_dirty_row(swept_r0_));
  sink_.drop_from(md);
  for (int i = 0; i < sink_.count; ++i)
    REPRO_DCHECK_MSG(sink_.rows[static_cast<std::size_t>(i)].row < md,
                     "torn checkpoint row survived drop_from(" << md << ")");
  const align::Score priority =
      *std::max_element(scores_.begin(), scores_.end());
  cache_->store(swept_r0_, /*plain_class=*/swept_version_ == 0, priority,
                sink_);
  if (swept_plain_)
    cache_->store(swept_r0_, /*plain_class=*/true, priority, plain_sink_);
}

TopAlignment Sweeper::trace(const Search& search, const Acceptance& a) {
  if (!recompute()) return search.trace(a, archived(a.r));
  // Recompute the original row; empty-triangle sweeps resume from (and
  // refresh) plain checkpoints.
  align::GroupJob plain;
  plain.seq = s_.codes();
  plain.scoring = &scoring_;
  plain.r0 = a.r;
  plain.count = 1;
  attach(plain, plain_sink_, plain_resume_, plain_view_, /*plain=*/true,
         /*lookup=*/true);
  const std::vector<align::Score> original = engine_.align_one(plain);
  if (cache_) cache_->store(a.r, /*plain_class=*/true, a.expected, plain_sink_);
  return search.trace(a, std::span<const align::Score>(original));
}

void Sweeper::add_stats(FinderStats& stats) const {
  // Engines may be reused across runs: count this run's activity only.
  stats.cells += engine_.cells_computed() - cells0_;
  stats.precision += engine_.precision_stats() - prec0_;
  stats.rows_swept += rows_swept_;
  stats.rows_skipped += rows_skipped_;
  stats.realign_seconds += realign_seconds_;
}

}  // namespace repro::core
