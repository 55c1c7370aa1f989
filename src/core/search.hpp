// The search core shared by every finder driver (paper §3, Fig. 5).
//
// The sequential, shared-memory and cluster finders — and the virtual
// cluster — run one best-first algorithm and differ only in who sweeps what
// and when. Search owns that algorithm's state and every decision in it:
// the override triangle, the groups and their queue, the in-flight bounds,
// the deterministic acceptance guard, score application and acceptance
// bookkeeping, and the run's statistics. A Sweeper owns what one engine
// needs for a sweep: output rows, resume buffers and the source of
// first-alignment rows; it shares its address space's checkpoint cache.
//
// Acceptance guard: the queue head is accepted when it is current and no
// in-flight task holds a bound that orders before it (scores only fall as
// the triangle grows, so such a task might still beat the head). An
// acceptance itself holds the head's bound in flight until it commits, so
// acceptances never overlap. The accepted tops are therefore identical for
// every driver, worker count and schedule.
//
// First-sweep runs: when the workers' engines band (align::Engine::bands),
// every worker at version 0 sweeps contiguous runs of first-sweep groups,
// so its engine sees each group right after the adjacent one and takes the
// band path (simd_kernel.hpp, "Band rows"). Other engines take the best
// stale group, as past version 0, which deals groups 0, 1, 2, ... in turn
// and leaves the cheap groups near the end of the sequence for last.
// A worker passes begin_sweep the group it took last and gets that group's
// successor while the successor is untaken. A worker with no such
// continuation splits the longest untaken stretch: it takes the stretch's
// head when the stretch starts at group 0, and its midpoint otherwise, so
// the run that reaches the stretch keeps its first half. No worker waits
// while a first-sweep group is untaken, and a group that a cancelled order
// or a dead worker leaves is an untaken stretch like any other. The
// sequential order stays 0, 1, 2, ...
//
// Search is not thread-safe: drivers serialize every call except trace(),
// which only reads the triangle — and the triangle changes only in
// finish_accept(), which the in-flight acceptance keeps from running
// concurrently with its own trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "align/bottom_row_store.hpp"
#include "align/checkpoint_cache.hpp"
#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "core/options.hpp"
#include "core/task_queue.hpp"
#include "seq/sequence.hpp"
#include "util/timer.hpp"

namespace repro::core {

class Sweeper;

/// A group taken off the queue for a sweep; its bound stays in flight until
/// finish_sweep or cancel_sweep.
struct SweepOrder {
  int gi = -1;
  int r0 = 1;
  int count = 1;
  int version = 0;  ///< triangle version the sweep is labelled with
  TaskKey bound;
  bool exact = true;  ///< no acceptance was under way when it was taken
};

/// The queue head taken for acceptance.
struct Acceptance {
  int gi = -1;
  int r = 0;
  align::Score expected = 0;
  TaskKey bound;
};

class Search {
 public:
  /// `runs`: the workers' engines band (align::Engine::bands), so first
  /// sweeps go out as runs (see "First-sweep runs").
  Search(const seq::Sequence& s, const seq::Scoring& scoring,
         const FinderOptions& options, int lanes, bool runs);

  [[nodiscard]] const seq::Sequence& sequence() const { return s_; }
  [[nodiscard]] const seq::Scoring& scoring() const { return scoring_; }
  [[nodiscard]] const FinderOptions& options() const { return options_; }
  [[nodiscard]] const align::OverrideTriangle& triangle() const {
    return triangle_;
  }
  /// Triangle version: the number of accepted tops.
  [[nodiscard]] int version() const { return static_cast<int>(tops_.size()); }
  [[nodiscard]] const std::vector<TopAlignment>& tops() const { return tops_; }

  /// True once enough tops are accepted, the best bound fell below
  /// min_score, or nothing is left queued or in flight.
  [[nodiscard]] bool done() const;

  /// Takes the queue head for acceptance when the guard allows it.
  std::optional<Acceptance> begin_accept();
  /// Traces acceptance `a` under the current triangle against its
  /// first-alignment row and checks its score.
  [[nodiscard]] TopAlignment trace(
      const Acceptance& a, std::span<const std::int16_t> original) const;
  [[nodiscard]] TopAlignment trace(
      const Acceptance& a, std::span<const align::Score> original) const;
  /// Marks the top's pairs in the triangle and records it.
  void finish_accept(const Acceptance& a, TopAlignment top);

  /// Takes a group for a sweep by the worker whose last order was group
  /// `last` (-1: none yet): with runs at version 0 its next first-sweep
  /// group (see "First-sweep runs"), otherwise the best group whose best
  /// member is stale.
  std::optional<SweepOrder> begin_sweep(int last);
  /// The old algorithm's pick: the best group with any stale member.
  std::optional<SweepOrder> begin_sweep_any();
  /// Applies a sweep's member scores (shadow-rejected bottom-row maxima).
  void finish_sweep(const SweepOrder& o, std::span<const align::Score> scores);
  /// Returns an order unswept: the group goes back on the queue as it was.
  void cancel_sweep(const SweepOrder& o);

  /// Hands `sweeper` the acceptances it has not yet seen.
  void sync(Sweeper& sweeper) const;

  /// Sums this run's sweeper statistics into the search's and returns the
  /// result. Call once, after the last sweep.
  FinderResult finish(std::span<Sweeper* const> sweepers,
                      double idle_seconds = 0.0);

 private:
  struct Before {
    bool operator()(const TaskKey& a, const TaskKey& b) const {
      return a.before(b);
    }
  };

  [[nodiscard]] bool stale(const GroupTask& g) const {
    return g.version[static_cast<std::size_t>(g.best_member())] != version();
  }
  bool skip_untouched(GroupTask& g);
  /// True for a first-sweep group neither swept nor in flight.
  [[nodiscard]] bool untaken(int gi) const;
  /// The first-sweep group for the worker that took `last`, or -1.
  [[nodiscard]] int next_first_sweep(int last) const;
  template <typename Pred>
  std::optional<SweepOrder> pop_sweep(Pred&& pick);
  SweepOrder take(int gi);
  void release(const TaskKey& bound);

  const seq::Sequence& s_;
  const seq::Scoring& scoring_;
  const FinderOptions& options_;
  align::OverrideTriangle triangle_;
  std::vector<GroupTask> groups_;
  GroupQueue queue_;
  std::multiset<TaskKey, Before> inflight_;
  std::vector<TopAlignment> tops_;
  std::vector<align::PairDirtyIndex> dirty_;  ///< one per acceptance
  bool runs_;
  int accepting_ = 0;
  bool exhausted_ = false;
  FinderStats stats_;
  util::WallTimer timer_;
};

/// Where a sweeper finds first-alignment (empty-triangle) bottom rows. With
/// neither member set it recomputes them (MemoryMode::kRecomputeRows).
struct RowSource {
  /// Shared archive: read at realignment and filled by version-0 sweeps.
  align::BottomRowStore* archive = nullptr;
  /// Read-only lookup (a cluster worker's fetched replicas).
  std::function<std::span<const std::int16_t>(int r)> fetch;
};

/// One engine's sweep state. Not thread-safe: one sweeper per worker.
class Sweeper {
 public:
  Sweeper(const seq::Sequence& s, const seq::Scoring& scoring,
          const FinderOptions& options, const align::OverrideTriangle& triangle,
          align::Engine& engine, align::CheckpointCache* cache, RowSource rows);
  /// A sweeper over the search's triangle.
  Sweeper(const Search& search, align::Engine& engine,
          align::CheckpointCache* cache, RowSource rows);

  [[nodiscard]] align::Engine& engine() { return engine_; }
  /// The checkpoint cache in use, or nullptr when checkpoints are off.
  [[nodiscard]] const align::CheckpointCache* cache() const { return cache_; }

  /// Number of acceptances this sweeper has been told about.
  [[nodiscard]] int version() const {
    return dirty_base_ + static_cast<int>(dirty_.size());
  }
  /// Records the next acceptance and applies it to the cache, unless
  /// another sweeper of the cache already has.
  void invalidate(align::PairDirtyIndex dirty);
  /// Forgets every checkpoint; `cumulative` covers all `version` acceptances
  /// (a cluster worker's resynchronisation). The cache must be this
  /// sweeper's alone.
  void reset(int version, align::PairDirtyIndex cumulative);

  /// Sweeps splits r0 .. r0+count-1 against the triangle (the empty one at
  /// version 0) and returns their scores. At version 0 the returned scores
  /// are plain bottom-row maxima and the rows go to the archive, if any.
  std::span<const align::Score> sweep(int r0, int count, int version);
  /// Bottom row of member k of the last sweep.
  [[nodiscard]] std::span<const align::Score> row(int k) const {
    return out_rows_[static_cast<std::size_t>(k)];
  }
  /// Stores the last sweep's checkpoints, less any rows that acceptances
  /// told to this sweeper since the sweep began may have torn.
  void commit();

  /// Traces acceptance `a` against this sweeper's first-alignment row.
  TopAlignment trace(const Search& search, const Acceptance& a);

  /// Adds this sweeper's cells, precision, row-skip and sweep counters
  /// (Search::finish counts each cache's lookups and evictions once).
  void add_stats(FinderStats& stats) const;

 private:
  [[nodiscard]] bool recompute() const {
    return rows_.archive == nullptr && !rows_.fetch;
  }
  [[nodiscard]] std::span<const std::int16_t> archived(int r) const {
    return rows_.archive != nullptr ? rows_.archive->row(r) : rows_.fetch(r);
  }
  int attach(align::GroupJob& job, align::CheckpointSink& sink,
             align::CheckpointRow& resume, align::CheckpointView& view,
             bool plain, bool lookup);
  void prepare(std::vector<std::vector<align::Score>>& rows,
               std::vector<std::span<align::Score>>& outs, int r0, int count);

  const seq::Sequence& s_;
  const seq::Scoring& scoring_;
  const align::OverrideTriangle& triangle_;
  align::Engine& engine_;
  RowSource rows_;
  align::CheckpointCache* cache_;
  /// Acceptance t at t - base: the plain-row limit and the torn-row drop.
  std::vector<align::PairDirtyIndex> dirty_;
  int dirty_base_ = 0;

  std::vector<std::vector<align::Score>> out_rows_, plain_rows_;
  std::vector<std::span<align::Score>> outs_, plain_outs_;
  std::vector<align::Score> scores_;
  align::CheckpointSink sink_, plain_sink_;
  align::CheckpointRow resume_, plain_resume_;  ///< copied-out resume rows
  align::CheckpointView view_, plain_view_;
  int swept_r0_ = 0;
  int swept_version_ = 0;
  bool swept_plain_ = false;  ///< plain_sink_ holds the last sweep's rows

  std::uint64_t cells0_ = 0;
  align::PrecisionStats prec0_;
  std::uint64_t rows_swept_ = 0;
  std::uint64_t rows_skipped_ = 0;
  double realign_seconds_ = 0.0;
};

}  // namespace repro::core
