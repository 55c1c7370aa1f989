#include "cluster/master_worker.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "align/bottom_row_store.hpp"
#include "align/override_triangle.hpp"
#include "cluster/mpisim.hpp"
#include "core/search.hpp"
#include "core/top_alignment_finder.hpp"
#include "util/check.hpp"

namespace repro::cluster {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

enum Tag : int {
  kReqWork = 1,  // W->M: hello (resent with backoff until registered)
  kAssign,       // M->W: [r0, count, version]
  kResult,       // W->M: [r0, count, version, sweep_us, scores...; rows...
                 //        when version==0 and rows are archived]
  kRowRequest,   // W->M: [r]
  kRowReply,     // M->W: [r, row values...]
  kUpdate,       // M->W: [new_version, npairs, i0, j0, i1, j1, ...]
  kSyncRequest,  // W->M: [target_version]  (worker missed an update)
  kSyncReply,    // M->W: [target_version, npairs, pairs...]  (cumulative
                 //        from version 0 — idempotent to reapply)
  kReject,       // W->M: [r0, version]  (assign version no longer computable)
  kShutdown,     // M->W: []
};

// Recovery timing. Task deadlines and resends arm only under a fault plan
// (an in-process fault-free run cannot lose messages); closed-rank
// detection is always on. Spurious timeouts only repeat deduplicated work.
constexpr milliseconds kTaskTimeout{60};   // least task deadline
constexpr milliseconds kRowTimeout{30};    // row-fetch / sync resend base
constexpr milliseconds kHelloTimeout{40};  // worker hello resend base
constexpr milliseconds kMaxBackoff{400};   // resend interval cap (x2 each)
constexpr milliseconds kPoll{5};           // receive quantum of every loop

/// Process-shared recovery accounting. Observability only — never consulted
/// by the protocol itself, so relaxed atomics are fine (a real-MPI port
/// would reduce per-rank tallies instead).
struct RecoveryStats {
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> reassignments{0};
  std::atomic<std::uint64_t> heartbeat_misses{0};
  std::atomic<std::uint64_t> stale_results{0};
  std::atomic<std::uint64_t> sync_requests{0};
  std::atomic<std::uint64_t> workers_lost{0};

  void bump(std::atomic<std::uint64_t>& c) {
    c.fetch_add(1, std::memory_order_relaxed);
  }
};

Message make_row_message(int tag, int r, std::span<const std::int16_t> row) {
  Message msg;
  msg.tag = tag;
  msg.data.reserve(row.size() + 1);
  msg.data.push_back(r);
  for (std::int16_t v : row) msg.data.push_back(v);
  return msg;
}

std::vector<std::int16_t> narrow(std::span<const align::Score> row) {
  return {row.begin(), row.end()};
}

std::vector<std::int16_t> row_from_message(const Message& msg) {
  std::vector<std::int16_t> row(msg.data.size() - 1);
  for (std::size_t x = 1; x < msg.data.size(); ++x)
    row[x - 1] = static_cast<std::int16_t>(msg.data[x]);
  return row;
}

milliseconds next_backoff(milliseconds current) {
  return std::min(2 * current, kMaxBackoff);
}

/// Master (rank 0): the search (queue, acceptance + traceback), worker
/// liveness and assignment records; under MemoryMode::kArchiveRows also
/// the bottom-row archive, and under MemoryMode::kRecomputeRows a sweeper of
/// its own that recomputes accepted rows.
class Master {
 public:
  Master(Comm& comm, core::Search& search, RecoveryStats& recovery,
         align::BottomRowStore* archive, core::Sweeper* sweeper)
      : comm_(comm),
        search_(search),
        recovery_(recovery),
        archive_(archive),
        sweeper_(sweeper),
        workers_(static_cast<std::size_t>(comm.size())) {}

  void run() {
    for (;;) {
      sweep();
      if (try_accept()) break;
      assign_idle();
      if (alive_workers() == 0)
        throw std::runtime_error(
            "cluster: every worker died with work remaining");
      if (const auto got = poll_recv(kPoll))
        handle(got->first, got->second);
    }
    // A crash that came due from here on could not be observed, so none is
    // injected; those that fired before are counted, and workers_lost then
    // equals the crashes injected.
    comm_.disarm_crashes();
    for (int w = 1; w < comm_.size(); ++w) {
      WorkerRec& rec = workers_[static_cast<std::size_t>(w)];
      if (rec.state != WState::kDead && comm_.closed(w)) {
        rec.state = WState::kDead;
        recovery_.bump(recovery_.workers_lost);
      }
    }
    comm_.broadcast(0, {kShutdown, {}});
  }

  [[nodiscard]] std::uint64_t replicas_served() const { return replicas_served_; }

 private:
  struct Assignment {
    core::SweepOrder order;
    Clock::time_point deadline;
  };
  enum class WState { kNew, kIdle, kBusy, kDead };
  struct WorkerRec {
    WState state = WState::kNew;
    std::optional<Assignment> job;
    /// This worker's least task deadline: doubled by each lapse, reset by
    /// each applied result (deadline_for).
    Clock::duration timeout = kTaskTimeout;
    int last = -1;  ///< the group last assigned, which the worker sweeps last
  };

  int alive_workers() const {
    int alive = 0;
    for (int w = 1; w < comm_.size(); ++w)
      if (workers_[static_cast<std::size_t>(w)].state != WState::kDead) ++alive;
    return alive;
  }

  void mark_idle(int w) {
    WorkerRec& rec = workers_[static_cast<std::size_t>(w)];
    REPRO_DCHECK(rec.state != WState::kDead);
    if (rec.state == WState::kIdle) return;
    rec.state = WState::kIdle;
    idle_.push_back(w);
  }

  void drop_from_idle(int w) {
    const auto it = std::find(idle_.begin(), idle_.end(), w);
    if (it != idle_.end()) idle_.erase(it);
  }

  /// Undoes an outstanding assignment: the group goes back on the queue and
  /// the in-flight bound is lifted. Safe at any time because group state
  /// only mutates when a matching result is *applied* — a cancelled
  /// worker's late result is deduplicated by the (cleared) record.
  void cancel_assignment(int w) {
    WorkerRec& rec = workers_[static_cast<std::size_t>(w)];
    REPRO_CHECK(rec.job.has_value());
    search_.cancel_sweep(rec.job->order);
    rec.job.reset();
  }

  /// Liveness sweep: fold in closed (crashed or exited) workers and, when a
  /// fault plan is active, expire assignment deadlines. The deadline path
  /// is optimistic: the worker may merely be slow, but cancel+requeue is
  /// always safe under result dedup, so false positives only cost work —
  /// and each lapse doubles the worker's deadline, so they stop.
  void sweep() {
    const auto now = Clock::now();
    for (int w = 1; w < comm_.size(); ++w) {
      WorkerRec& rec = workers_[static_cast<std::size_t>(w)];
      if (rec.state == WState::kDead) continue;
      if (comm_.closed(w)) {
        if (rec.job.has_value()) {
          cancel_assignment(w);
          recovery_.bump(recovery_.reassignments);
        }
        drop_from_idle(w);
        rec.state = WState::kDead;
        recovery_.bump(recovery_.workers_lost);
        continue;
      }
      if (deadlines_armed() && rec.job.has_value() && now >= rec.job->deadline) {
        recovery_.bump(recovery_.heartbeat_misses);
        rec.timeout *= 2;
        cancel_assignment(w);
        recovery_.bump(recovery_.retries);
        mark_idle(w);
      }
    }
  }

  bool deadlines_armed() const { return comm_.fault_active(); }

  /// A task deadline starting now: the worker's own timeout (which each
  /// lapse doubles), but never less than twice the longest sweep any
  /// worker has reported.
  Clock::time_point deadline_for(const WorkerRec& rec) const {
    return Clock::now() + std::max(rec.timeout, 2 * longest_sweep_);
  }

  /// recv_any_for that treats "every peer closed" as silence; the main
  /// loop's sweep turns that state into recovery or a hard error.
  std::optional<std::pair<int, Message>> poll_recv(milliseconds timeout) {
    try {
      return comm_.recv_any_for(0, timeout);
    } catch (const ChannelClosed&) {
      return std::nullopt;
    }
  }

  /// Traces acceptance `a` against its original bottom row: recomputed or
  /// archived.
  core::TopAlignment trace(const core::Acceptance& a) {
    if (sweeper_ != nullptr) return sweeper_->trace(search_, a);
    return search_.trace(a, archive_->row(a.r));
  }

  /// Accepts as long as the search's guard allows; returns true when the
  /// search is complete.
  bool try_accept() {
    while (const auto a = search_.begin_accept()) {
      core::TopAlignment top = trace(*a);
      // Broadcast the triangle growth before any assign can reference the
      // new version (per-channel FIFO makes the ordering safe; a worker
      // that loses this update resynchronises via kSyncRequest).
      Message update;
      update.tag = kUpdate;
      update.data.push_back(search_.version() + 1);
      update.data.push_back(static_cast<std::int32_t>(top.pairs.size()));
      for (const auto& [i, j] : top.pairs) {
        update.data.push_back(i);
        update.data.push_back(j);
      }
      comm_.broadcast(0, update);
      search_.finish_accept(*a, std::move(top));
    }
    return search_.done();
  }

  /// Gives idle workers orders. Each asks with its own last group, so at
  /// version 0 it continues its own run of first sweeps.
  void assign_idle() {
    while (!idle_.empty()) {
      const int w = idle_.back();
      WorkerRec& rec = workers_[static_cast<std::size_t>(w)];
      const auto o = search_.begin_sweep(rec.last);
      if (!o) break;
      idle_.pop_back();
      REPRO_DCHECK(rec.state == WState::kIdle && !rec.job.has_value());
      rec.state = WState::kBusy;
      rec.job = Assignment{*o, deadline_for(rec)};
      rec.last = o->gi;
      comm_.send(0, w, {kAssign, {o->r0, o->count, o->version}});
    }
  }

  void handle(int src, const Message& msg) {
    WorkerRec& rec = workers_[static_cast<std::size_t>(src)];
    switch (msg.tag) {
      case kReqWork:
        // Register a new worker. Duplicate hellos from a known worker are
        // noise (resends, or duplicates injected by the fault plan).
        if (rec.state == WState::kNew && !comm_.closed(src)) mark_idle(src);
        break;
      case kRowRequest: {
        REPRO_CHECK_MSG(archive_ != nullptr,
                        "row request reached the master without an archive");
        const int r = msg.data.at(0);
        comm_.send(0, src, make_row_message(kRowReply, r, archive_->row(r)));
        ++replicas_served_;
        break;
      }
      case kResult:
        apply_result(src, msg);
        break;
      case kSyncRequest:
        send_sync_reply(src, msg.data.at(0));
        break;
      case kReject:
        // The worker could no longer compute at the assigned version (a
        // duplicated assign landed after its replica moved on). Requeue.
        if (rec.job.has_value() && rec.job->order.r0 == msg.data.at(0) &&
            rec.job->order.version == msg.data.at(1)) {
          cancel_assignment(src);
          recovery_.bump(recovery_.retries);
          mark_idle(src);
        }
        break;
      default:
        REPRO_CHECK_MSG(false, "master received unexpected tag " << msg.tag);
    }
  }

  /// Cumulative triangle state up to target_version, idempotent to apply.
  void send_sync_reply(int src, int target_version) {
    REPRO_CHECK(target_version >= 0 && target_version <= search_.version());
    recovery_.bump(recovery_.sync_requests);
    const std::vector<core::TopAlignment>& tops = search_.tops();
    Message reply;
    reply.tag = kSyncReply;
    std::size_t npairs = 0;
    for (int v = 0; v < target_version; ++v)
      npairs += tops[static_cast<std::size_t>(v)].pairs.size();
    reply.data.reserve(2 + 2 * npairs);
    reply.data.push_back(target_version);
    reply.data.push_back(static_cast<std::int32_t>(npairs));
    for (int v = 0; v < target_version; ++v) {
      for (const auto& [i, j] : tops[static_cast<std::size_t>(v)].pairs) {
        reply.data.push_back(i);
        reply.data.push_back(j);
      }
    }
    comm_.send(0, src, std::move(reply));
  }

  void apply_result(int src, const Message& msg) {
    const int r0 = msg.data.at(0);
    const int count = msg.data.at(1);
    const int v = msg.data.at(2);
    WorkerRec& rec = workers_[static_cast<std::size_t>(src)];
    // The worker's own sweep time: queueing behind a lapsed sweep and
    // message delays are not part of it.
    longest_sweep_ = std::max<Clock::duration>(
        longest_sweep_, std::chrono::microseconds(msg.data.at(3)));
    // Dedup: only the result matching the worker's live assignment record
    // is applied. Anything else — a duplicate delivery, a result computed
    // for an assignment that timed out and was requeued, a straggler from
    // a rank that has since died — is superseded and must be dropped.
    if (!rec.job.has_value() || rec.job->order.r0 != r0 ||
        rec.job->order.version != v) {
      recovery_.bump(recovery_.stale_results);
      // The worker sweeps its assignments in order, so it starts its live
      // task no earlier than now: restart that task's clock.
      if (rec.job.has_value()) rec.job->deadline = deadline_for(rec);
      return;
    }
    const core::SweepOrder order = rec.job->order;
    rec.timeout = kTaskTimeout;
    rec.job.reset();
    REPRO_CHECK(order.count == count);
    const auto first = msg.data.begin() + 4;
    const std::span<const align::Score> scores(first, first + count);
    // A first alignment's bottom rows ride the result for archival, kept
    // exactly once: only the live record's result is applied.
    auto cursor = first + count;
    if (v == 0 && archive_ != nullptr) {
      for (int k = 0; k < count; ++k) {
        const int r = r0 + k;
        const auto end = cursor + (search_.sequence().length() - r);
        archive_->store(r, std::span<const align::Score>(cursor, end));
        cursor = end;
      }
    }
    REPRO_CHECK(cursor == msg.data.end());
    search_.finish_sweep(order, scores);
    mark_idle(src);
  }

  Comm& comm_;
  core::Search& search_;
  RecoveryStats& recovery_;
  align::BottomRowStore* archive_;  // MemoryMode::kArchiveRows only
  core::Sweeper* sweeper_;          // MemoryMode::kRecomputeRows only
  std::vector<WorkerRec> workers_;  // indexed by rank; [0] unused
  std::vector<int> idle_;
  Clock::duration longest_sweep_{};  ///< longest worker-reported sweep
  std::uint64_t replicas_served_ = 0;
};

/// Raised inside a worker when the master shuts the run down (or vanishes)
/// while the worker is mid-protocol — its in-flight work is no longer
/// needed; the search already completed.
struct ShutdownSignal {};

/// Worker rank: replicated triangle and a sweeper with its own engine and
/// checkpoint cache (invalidated by each update, cleared by a resync).
/// Original rows are recomputed under MemoryMode::kRecomputeRows and
/// otherwise fetched from the master and cached.
class Worker {
 public:
  Worker(Comm& comm, int rank, const seq::Sequence& s,
         const seq::Scoring& scoring, const ClusterOptions& options,
         align::Engine& engine, std::size_t checkpoint_budget,
         RecoveryStats& recovery)
      : comm_(comm),
        rank_(rank),
        options_(options),
        recovery_(recovery),
        triangle_(s.length()),
        cache_(checkpoint_budget),
        sweeper_(s, scoring, options.finder, triangle_, engine, &cache_,
                 core::RowSource{nullptr, fetch_rows()}) {}

  Worker(const Worker&) = delete;  // the sweeper's row fetch holds `this`
  Worker& operator=(const Worker&) = delete;

  [[nodiscard]] core::Sweeper& sweeper() { return sweeper_; }

  void run() {
    comm_.send(rank_, 0, {kReqWork, {}});
    auto hello_backoff = kHelloTimeout;
    auto next_hello = Clock::now() + hello_backoff;
    try {
      for (;;) {
        if (!pending_assigns_.empty()) {
          const Message assign = std::move(pending_assigns_.front());
          pending_assigns_.pop_front();
          handle_assign(assign);
          continue;
        }
        const auto got = comm_.recv_any_for(rank_, kPoll);
        if (!got) {
          if (comm_.closed(0)) return;  // master gone (e.g. shutdown dropped)
          // Re-hello until the master provably knows us (first assign):
          // the initial hello may have been dropped by the fault plan.
          if (comm_.fault_active() && !registered_ &&
              Clock::now() >= next_hello) {
            comm_.send(rank_, 0, {kReqWork, {}});
            recovery_.bump(recovery_.retries);
            hello_backoff = next_backoff(hello_backoff);
            next_hello = Clock::now() + hello_backoff;
          }
          continue;
        }
        const auto& [src, msg] = *got;
        if (msg.tag == kShutdown) return;
        if (msg.tag == kAssign) {
          registered_ = true;
          handle_assign(msg);
        } else {
          dispatch(src, msg);
        }
      }
    } catch (const ShutdownSignal&) {
      // master completed the search mid-task
    } catch (const ChannelClosed&) {
      // every peer is gone; nothing left to do
    }
  }

 private:
  bool archived() const {
    return options_.finder.memory == core::MemoryMode::kArchiveRows;
  }

  /// The sweeper's source of original rows: fetched replicas, or none (it
  /// recomputes them) under MemoryMode::kRecomputeRows.
  std::function<std::span<const std::int16_t>(int)> fetch_rows() {
    if (!archived()) return {};
    return [this](int r) {
      return std::span<const std::int16_t>(original_row(r));
    };
  }

  /// Handles any message that can arrive while blocked in a nested wait
  /// (row fetch, version sync) — everything except kAssign (stashed by the
  /// callers: we are busy, the compute must finish first) and kShutdown.
  void dispatch(int src, const Message& msg) {
    switch (msg.tag) {
      case kUpdate:
        apply_update(msg);
        break;
      case kRowReply:
        // Outlived its fetch loop (a resent request answered twice).
        row_cache_.emplace(msg.data.at(0), row_from_message(msg));
        break;
      case kSyncReply:
        apply_sync(msg);
        break;
      default:
        REPRO_CHECK_MSG(false, "worker " << rank_ << " got unexpected tag "
                                         << msg.tag << " from " << src);
    }
  }

  /// Tolerant replica update: applies only the next version in sequence.
  /// A duplicate (new_version <= ours) re-delivers pairs we already hold; a
  /// gap (new_version > ours + 1) means an update was lost — both are
  /// ignored here, and the next assign triggers an explicit resync.
  void apply_update(const Message& msg) {
    const int new_version = msg.data.at(0);
    if (new_version != version_ + 1) return;
    sweeper_.invalidate(align::PairDirtyIndex(set_pairs(msg)));
    version_ = new_version;
  }

  /// Marks a [version, npairs, i0, j0, ...] message's pairs; returns them.
  std::vector<std::pair<int, int>> set_pairs(const Message& msg) {
    const auto npairs = static_cast<std::size_t>(msg.data.at(1));
    REPRO_DCHECK(msg.data.size() == 2 + 2 * npairs);
    std::vector<std::pair<int, int>> pairs(npairs);
    for (std::size_t p = 0; p < npairs; ++p) {
      pairs[p] = {msg.data.at(2 + 2 * p), msg.data.at(3 + 2 * p)};
      triangle_.set(pairs[p].first, pairs[p].second);
    }
    return pairs;
  }

  /// Cumulative sync reply: all pairs of versions 1..target. Idempotent
  /// (triangle bits are monotone), so duplicates and overlaps are safe.
  void apply_sync(const Message& msg) {
    const int to_version = msg.data.at(0);
    if (to_version <= version_) return;  // duplicate or superseded reply
    sweeper_.reset(to_version, align::PairDirtyIndex(set_pairs(msg)));
    version_ = to_version;
  }

  /// Blocks until the replica reaches `target`, requesting cumulative sync
  /// state from the master with timeout + exponential backoff.
  void sync_to(int target) {
    recovery_.bump(recovery_.sync_requests);
    comm_.send(rank_, 0, {kSyncRequest, {target}});
    auto backoff = kRowTimeout;
    auto deadline = Clock::now() + backoff;
    while (version_ < target) {
      const auto got = comm_.recv_any_for(rank_, kPoll);
      if (got) {
        const auto& [src, msg] = *got;
        if (msg.tag == kShutdown) throw ShutdownSignal{};
        if (msg.tag == kAssign) {
          pending_assigns_.push_back(msg);
          continue;
        }
        dispatch(src, msg);  // kSyncReply and kUpdate both advance version_
        continue;
      }
      if (Clock::now() < deadline) continue;
      if (comm_.closed(0)) throw ShutdownSignal{};
      comm_.send(rank_, 0, {kSyncRequest, {target}});
      recovery_.bump(recovery_.retries);
      backoff = next_backoff(backoff);
      deadline = Clock::now() + backoff;
    }
  }

  /// Original bottom row of r, from the local cache or the master's
  /// archive. While blocked on the reply the worker keeps applying updates;
  /// under a fault plan it resends with backoff.
  const std::vector<std::int16_t>& original_row(int r) {
    if (const auto it = row_cache_.find(r); it != row_cache_.end())
      return it->second;
    comm_.send(rank_, 0, {kRowRequest, {r}});
    auto backoff = kRowTimeout;
    auto deadline = Clock::now() + backoff;
    for (;;) {
      if (const auto got = comm_.recv_any_for(rank_, kPoll)) {
        const auto& [src, msg] = *got;
        if (msg.tag == kRowReply && msg.data.at(0) == r)
          return row_cache_.emplace(r, row_from_message(msg)).first->second;
        if (msg.tag == kShutdown) throw ShutdownSignal{};
        if (msg.tag == kAssign) {
          // The master may have optimistically requeued our task; finish
          // the current compute first, then take the new assignment.
          pending_assigns_.push_back(msg);
          continue;
        }
        dispatch(src, msg);
        continue;
      }
      if (comm_.closed(0)) throw ShutdownSignal{};
      if (!comm_.fault_active() || Clock::now() < deadline) continue;
      comm_.send(rank_, 0, {kRowRequest, {r}});
      recovery_.bump(recovery_.retries);
      backoff = next_backoff(backoff);
      deadline = Clock::now() + backoff;
    }
  }

  void handle_assign(const Message& assign) {
    registered_ = true;
    const int r0 = assign.data.at(0);
    const int count = assign.data.at(1);
    const int v = assign.data.at(2);
    // The replica may have missed update broadcasts: catch up to the
    // assign's version before computing (fault-free, per-channel FIFO
    // guarantees v == version_ on arrival).
    if (v > version_) sync_to(v);
    if (v != version_) {
      // A duplicated or superseded assign landed after the replica moved
      // past its version; computing "at v" with a newer triangle would
      // produce scores from the wrong version. Hand it back.
      comm_.send(rank_, 0, {kReject, {r0, v}});
      return;
    }
    const auto begin = Clock::now();
    const std::span<const align::Score> scores = sweeper_.sweep(r0, count, v);
    sweeper_.commit();
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - begin)
                        .count();
    Message result;
    result.tag = kResult;
    result.data = {r0, count, v,
                   static_cast<std::int32_t>(std::min<std::int64_t>(
                       us, std::numeric_limits<std::int32_t>::max()))};
    result.data.insert(result.data.end(), scores.begin(), scores.end());
    if (v == 0 && archived()) {
      for (int k = 0; k < count; ++k) {
        // Cache locally; the archive copy rides the result.
        std::vector<std::int16_t> row = narrow(sweeper_.row(k));
        result.data.insert(result.data.end(), row.begin(), row.end());
        row_cache_.emplace(r0 + k, std::move(row));
      }
    }
    comm_.send(rank_, 0, std::move(result));
  }

  Comm& comm_;
  int rank_;
  const ClusterOptions& options_;
  RecoveryStats& recovery_;
  align::OverrideTriangle triangle_;
  align::CheckpointCache cache_;  ///< a rank is its own address space
  core::Sweeper sweeper_;
  int version_ = 0;
  bool registered_ = false;  ///< the master has provably seen our hello
  std::deque<Message> pending_assigns_;
  std::unordered_map<int, std::vector<std::int16_t>> row_cache_;
};

}  // namespace

core::FinderResult find_top_alignments_cluster(const seq::Sequence& s,
                                               const seq::Scoring& scoring,
                                               const ClusterOptions& options,
                                               const align::EngineFactory& factory,
                                               ClusterRunInfo* info) {
  REPRO_CHECK(options.ranks >= 1);
  const auto crashed = options.fault_plan.crashed_ranks();
  for (int c : crashed)
    REPRO_CHECK_MSG(c > 0 && c < options.ranks,
                    "fault plan may only crash worker ranks (got rank "
                        << c << " of " << options.ranks << ")");
  REPRO_CHECK_MSG(static_cast<int>(crashed.size()) < options.ranks - 1 ||
                      options.ranks == 1,
                  "fault plan must leave at least one worker alive");
  if (options.ranks == 1) {
    // Degenerate single-rank mode: no workers to message (and no channels
    // for a fault plan to act on); run sequentially.
    const auto engine = factory();
    return core::find_top_alignments(s, scoring, options.finder, *engine);
  }

  // One engine per worker; the master needs one only to recompute the
  // accepted rows under MemoryMode::kRecomputeRows.
  const bool recompute =
      options.finder.memory == core::MemoryMode::kRecomputeRows;
  std::vector<std::unique_ptr<align::Engine>> engines(
      static_cast<std::size_t>(options.ranks));
  for (int rank = recompute ? 0 : 1; rank < options.ranks; ++rank) {
    engines[static_cast<std::size_t>(rank)] = factory();
    REPRO_CHECK(engines[static_cast<std::size_t>(rank)] != nullptr);
  }
  const int lanes = engines.back()->lanes();
  for (const auto& e : engines)
    REPRO_CHECK_MSG(e == nullptr || e->lanes() == lanes,
                    "all worker engines must have the same lane count");

  core::Search search(s, scoring, options.finder, lanes,
                      engines.back()->bands(s.length()));
  std::optional<align::BottomRowStore> archive;
  if (!recompute) archive.emplace(s.length());
  const std::size_t budget = std::max<std::size_t>(
      1, options.finder.checkpoint_mem /
             static_cast<std::size_t>(options.ranks - 1));
  align::CheckpointCache master_cache(budget);
  std::optional<core::Sweeper> master_sweeper;
  std::vector<core::Sweeper*> sweepers;
  if (recompute) {
    master_sweeper.emplace(search, *engines[0], &master_cache,
                           core::RowSource{});
    sweepers.push_back(&*master_sweeper);
  }
  RecoveryStats recovery;
  Comm comm(options.ranks, options.fault_plan);
  std::vector<std::unique_ptr<Worker>> workers(
      static_cast<std::size_t>(options.ranks));
  for (int rank = 1; rank < options.ranks; ++rank) {
    auto& w = workers[static_cast<std::size_t>(rank)];
    w = std::make_unique<Worker>(comm, rank, s, scoring, options,
                                 *engines[static_cast<std::size_t>(rank)],
                                 budget, recovery);
    sweepers.push_back(&w->sweeper());
  }
  Master master(comm, search, recovery, archive ? &*archive : nullptr,
                master_sweeper ? &*master_sweeper : nullptr);
  run_ranks(comm, [&](int rank) {
    if (rank == 0) {
      master.run();
    } else {
      workers[static_cast<std::size_t>(rank)]->run();
    }
  });

  // Read the counters after the join: stragglers (workers finishing
  // superseded work during shutdown) keep sending — and counting — until
  // their bodies exit.
  const auto load = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  if (info != nullptr) {
    info->messages = comm.messages_sent();
    info->payload_words = comm.words_sent();
    info->row_replicas_served = master.replicas_served();
    info->messages_by_rank.resize(static_cast<std::size_t>(comm.size()));
    info->payload_words_by_rank.resize(static_cast<std::size_t>(comm.size()));
    for (int rank = 0; rank < comm.size(); ++rank) {
      info->messages_by_rank[static_cast<std::size_t>(rank)] =
          comm.messages_sent_from(rank);
      info->payload_words_by_rank[static_cast<std::size_t>(rank)] =
          comm.words_sent_from(rank);
    }
    info->retries = load(recovery.retries);
    info->reassignments = load(recovery.reassignments);
    info->heartbeat_misses = load(recovery.heartbeat_misses);
    info->stale_results = load(recovery.stale_results);
    info->sync_requests = load(recovery.sync_requests);
    info->workers_lost = load(recovery.workers_lost);
    info->fault_stats = comm.fault_stats();
  }
  return search.finish(sweepers);
}

}  // namespace repro::cluster
