#include "cluster/master_worker.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "align/bottom_row_store.hpp"
#include "align/override_triangle.hpp"
#include "align/traceback.hpp"
#include "cluster/mpisim.hpp"
#include "core/task_queue.hpp"
#include "core/top_alignment_finder.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace repro::cluster {
namespace {

using core::GroupTask;
using core::TaskKey;
using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

enum Tag : int {
  kReqWork = 1,  // W->M: hello (resent with backoff until registered)
  kAssign,       // M->W: [r0, count, version]
  kResult,       // W->M: [r0, count, version, scores...; rows... when
                 //        version==0 in replica mode]
  kRowRequest,   // any->owner: [r]  (owner = master in replica mode)
  kRowReply,     // owner->any: [r, row values...]
  kRowDeposit,   // W->owner W: [r, row values...]  (partitioned mode, v0)
  kUpdate,       // M->W: [new_version, npairs, i0, j0, i1, j1, ...]
  kSyncRequest,  // W->M: [target_version]  (worker missed an update)
  kSyncReply,    // M->W: [target_version, npairs, pairs...]  (cumulative
                 //        from version 0 — idempotent to reapply)
  kReject,       // W->M: [r0, version]  (assign version no longer computable)
  kPing,         // M->W: []  (sent on a missed deadline; liveness probe)
  kPong,         // W->M: []
  kShutdown,     // M->W: []
};

struct KeyCmp {
  bool operator()(const TaskKey& a, const TaskKey& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.r < b.r;
  }
};

/// Process-shared recovery accounting. Observability only — never consulted
/// by the protocol itself, so relaxed atomics are fine (a real-MPI port
/// would reduce per-rank tallies instead).
struct RecoveryStats {
  std::atomic<std::uint64_t> deposits{0};  ///< cross-rank row deposits sent
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> reassignments{0};
  std::atomic<std::uint64_t> heartbeat_misses{0};
  std::atomic<std::uint64_t> stale_results{0};
  std::atomic<std::uint64_t> row_rebuilds{0};
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

std::vector<std::int16_t> row_from_message(const Message& msg) {
  std::vector<std::int16_t> row(msg.data.size() - 1);
  for (std::size_t x = 1; x < msg.data.size(); ++x)
    row[x - 1] = static_cast<std::int16_t>(msg.data[x]);
  return row;
}

milliseconds next_backoff(milliseconds current, const FaultToleranceOptions& ft) {
  const auto scaled = static_cast<std::int64_t>(
      static_cast<double>(current.count()) * ft.backoff);
  return milliseconds(std::min<std::int64_t>(scaled, ft.max_backoff_ms));
}

/// Master (rank 0): task queue, acceptance + traceback, worker liveness and
/// assignment records; in replica mode also the bottom-row archive.
class Master {
 public:
  Master(Comm& comm, const seq::Sequence& s, const seq::Scoring& scoring,
         const ClusterOptions& options, int lanes, RecoveryStats& recovery)
      : comm_(comm),
        s_(s),
        scoring_(scoring),
        options_(options),
        recovery_(recovery),
        triangle_(s.length()),
        lanes_(lanes),
        groups_(core::make_groups(s.length(), lanes)),
        workers_(static_cast<std::size_t>(comm.size())) {
    if (options.row_storage == RowStorage::kMasterReplica)
      rows_.emplace(s.length());
    for (std::size_t gi = 0; gi < groups_.size(); ++gi)
      queue_.push(static_cast<int>(gi), groups_[gi].key());
  }

  core::FinderResult run() {
    util::WallTimer timer;
    bool done = false;
    while (!done) {
      sweep();
      done = try_accept();
      if (!done) {
        assign_idle();
        // Exhausted: nothing running and every live worker is registered
        // and idle — with an up-to-date, unblocked head try_accept would
        // have progressed.
        done = inflight_.empty() &&
               static_cast<int>(idle_.size()) == alive_workers();
        if (!done && alive_workers() == 0)
          throw std::runtime_error(
              "cluster: every worker died with work remaining");
      }
      if (done) break;
      if (const auto got = poll_recv(milliseconds(options_.ft.poll_ms)))
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

    core::FinderResult res;
    res.tops = std::move(tops_);
    res.stats = stats_;
    res.stats.seconds = timer.seconds();
    return res;
  }

  [[nodiscard]] std::uint64_t replicas_served() const { return replicas_served_; }

 private:
  struct Assignment {
    int gi = -1;
    int r0 = -1;
    int version = -1;
    TaskKey key;  ///< the group's key at assign time (for inflight_ removal)
    Clock::time_point deadline;
  };
  enum class WState { kNew, kIdle, kBusy, kDead };
  struct WorkerRec {
    WState state = WState::kNew;
    std::optional<Assignment> job;
  };

  int version() const { return static_cast<int>(tops_.size()); }

  bool group_stale(int gi) const {
    const GroupTask& g = groups_[static_cast<std::size_t>(gi)];
    return g.version[static_cast<std::size_t>(g.best_member())] != version();
  }

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
    const Assignment& job = *rec.job;
    const GroupTask& g = groups_[static_cast<std::size_t>(job.gi)];
    // Recovery invariant: an assigned group's key cannot have moved (only
    // an applied result changes it, and at most one record references a
    // group at a time).
    REPRO_DCHECK(!KeyCmp{}(g.key(), job.key) && !KeyCmp{}(job.key, g.key()));
    const auto it = inflight_.find(job.key);
    REPRO_CHECK(it != inflight_.end());
    inflight_.erase(it);
    queue_.push(job.gi, g.key());
    rec.job.reset();
  }

  /// Liveness sweep: fold in closed (crashed or exited) workers and, when a
  /// fault plan is active, expire assignment deadlines. The deadline path
  /// is optimistic: the worker may merely be slow, but cancel+requeue is
  /// always safe under result dedup, so false positives only cost work.
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
        comm_.send(0, w, {kPing, {}});
        cancel_assignment(w);
        recovery_.bump(recovery_.retries);
        mark_idle(w);
      }
    }
  }

  bool deadlines_armed() const { return comm_.fault_active(); }

  /// recv_any_for that treats "every peer closed" as silence; the main
  /// loop's sweep turns that state into recovery or a hard error.
  std::optional<std::pair<int, Message>> poll_recv(milliseconds timeout) {
    try {
      return comm_.recv_any_for(0, timeout);
    } catch (const ChannelClosed&) {
      return std::nullopt;
    }
  }

  /// Advisory owner of row r among the workers still alive. Fault-free this
  /// is the static partition 1 + (r % workers); after a crash the shard
  /// re-homes to a surviving rank, which rebuilds the row on demand.
  int owner_of_alive(int r) const {
    std::vector<int> alive;
    for (int w = 1; w < comm_.size(); ++w)
      if (!comm_.closed(w)) alive.push_back(w);
    if (alive.empty())
      throw std::runtime_error(
          "cluster: every worker died during a row fetch");
    return alive[static_cast<std::size_t>(r) % alive.size()];
  }

  /// Fetches row r from its (current) owner, servicing every other message
  /// normally while blocked — results keep flowing during the master's
  /// fetch, only acceptance is on hold. Times out, backs off, and re-routes
  /// to a surviving owner if the first choice dies mid-request.
  std::vector<std::int16_t> fetch_row_remote(int r) {
    auto backoff = milliseconds(options_.ft.row_timeout_ms);
    for (;;) {
      const int owner = owner_of_alive(r);
      comm_.send(0, owner, {kRowRequest, {r}});
      const auto deadline = Clock::now() + backoff;
      for (;;) {
        const auto now = Clock::now();
        if (now >= deadline) break;
        const auto slice =
            std::chrono::duration_cast<milliseconds>(deadline - now);
        const auto got = poll_recv(std::max(slice, milliseconds(1)));
        if (!got) continue;
        const auto& [src, msg] = *got;
        if (msg.tag == kRowReply) {
          const int rr = msg.data.at(0);
          if (rr == r) return row_from_message(msg);
          fetched_.emplace(rr, row_from_message(msg));  // stray duplicate
          continue;
        }
        handle(src, msg);
      }
      // Resend only under an active fault plan or a dead owner; a reliable
      // in-process run just keeps waiting (the owner may be computing).
      if (!comm_.fault_active() && !comm_.closed(owner)) continue;
      recovery_.bump(recovery_.retries);
      backoff = next_backoff(backoff, options_.ft);
      sweep();  // fold in the owner's death before re-routing
    }
  }

  /// Original bottom row of r for the acceptance traceback.
  std::span<const std::int16_t> original_row(int r) {
    if (rows_.has_value()) return rows_->row(r);
    const auto it = fetched_.find(r);
    if (it != fetched_.end()) return it->second;
    return fetched_.emplace(r, fetch_row_remote(r)).first->second;
  }

  /// Accepts as long as the deterministic guard allows; returns true when
  /// the search is complete.
  bool try_accept() {
    for (;;) {
      if (static_cast<int>(tops_.size()) >= options_.finder.num_top_alignments)
        return true;
      const auto head = queue_.peek();
      if (!head || group_stale(head->second)) return false;
      if (!inflight_.empty() && KeyCmp{}(*inflight_.begin(), head->first))
        return false;  // an in-flight bound could still order before the head
      if (head->first.score < options_.finder.min_score) return true;

      // Fetching the original row may process further results; re-validate
      // the head afterwards (its key cannot have *improved*, but an
      // in-flight bound may have landed above it).
      const GroupTask& head_group = groups_[static_cast<std::size_t>(head->second)];
      const int b = head_group.best_member();
      const int r = head_group.r0 + b;
      const std::span<const std::int16_t> original = original_row(r);
      const auto head2 = queue_.peek();
      if (!head2 || head2->second != head->second || group_stale(head2->second))
        continue;
      if (!inflight_.empty() && KeyCmp{}(*inflight_.begin(), head2->first))
        return false;

      const auto popped = queue_.pop_best();
      REPRO_CHECK(popped && *popped == head->second);
      GroupTask& g = groups_[static_cast<std::size_t>(*popped)];
      core::TopAlignment top =
          core::accept_alignment(s_, scoring_, triangle_, original, r,
                                 g.score[static_cast<std::size_t>(b)]);
      // Broadcast the triangle growth before any assign can reference the
      // new version (per-channel FIFO makes the ordering safe; a worker
      // that loses this update resynchronises via kSyncRequest).
      Message update;
      update.tag = kUpdate;
      update.data.push_back(version() + 1);
      update.data.push_back(static_cast<std::int32_t>(top.pairs.size()));
      for (const auto& [i, j] : top.pairs) {
        update.data.push_back(i);
        update.data.push_back(j);
      }
      comm_.broadcast(0, update);
      tops_.push_back(std::move(top));
      ++stats_.tracebacks;
      queue_.push(*popped, g.key());
    }
  }

  void assign_idle() {
    while (!idle_.empty()) {
      const auto gi = queue_.pop_best_if([this](int g) { return group_stale(g); });
      if (!gi) break;
      const int w = idle_.back();
      idle_.pop_back();
      WorkerRec& rec = workers_[static_cast<std::size_t>(w)];
      REPRO_DCHECK(rec.state == WState::kIdle && !rec.job.has_value());
      rec.state = WState::kBusy;
      GroupTask& g = groups_[static_cast<std::size_t>(*gi)];
      inflight_.insert(g.key());
      rec.job = Assignment{*gi, g.r0, version(), g.key(),
                           Clock::now() + milliseconds(options_.ft.task_timeout_ms)};
      comm_.send(0, w, {kAssign, {g.r0, g.count, version()}});
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
        REPRO_CHECK_MSG(rows_.has_value(),
                        "row request reached the master in partitioned mode");
        const int r = msg.data.at(0);
        comm_.send(0, src, make_row_message(kRowReply, r, rows_->row(r)));
        ++replicas_served_;
        break;
      }
      case kRowReply:
        // A reply that outlived its fetch loop (resent request answered
        // twice). Cache it — row data never changes once computed.
        fetched_.emplace(msg.data.at(0), row_from_message(msg));
        break;
      case kResult:
        apply_result(src, msg);
        break;
      case kSyncRequest:
        send_sync_reply(src, msg.data.at(0));
        break;
      case kReject:
        // The worker could no longer compute at the assigned version (a
        // duplicated assign landed after its replica moved on). Requeue.
        if (rec.job.has_value() && rec.job->r0 == msg.data.at(0) &&
            rec.job->version == msg.data.at(1)) {
          cancel_assignment(src);
          recovery_.bump(recovery_.retries);
          mark_idle(src);
        }
        break;
      case kPong:
        break;  // liveness evidence only; the deadline already handled it
      default:
        REPRO_CHECK_MSG(false, "master received unexpected tag " << msg.tag);
    }
  }

  /// Cumulative triangle state up to target_version, idempotent to apply.
  void send_sync_reply(int src, int target_version) {
    REPRO_CHECK(target_version >= 0 && target_version <= version());
    recovery_.bump(recovery_.sync_requests);
    Message reply;
    reply.tag = kSyncReply;
    std::size_t npairs = 0;
    for (int v = 0; v < target_version; ++v)
      npairs += tops_[static_cast<std::size_t>(v)].pairs.size();
    reply.data.reserve(2 + 2 * npairs);
    reply.data.push_back(target_version);
    reply.data.push_back(static_cast<std::int32_t>(npairs));
    for (int v = 0; v < target_version; ++v) {
      for (const auto& [i, j] : tops_[static_cast<std::size_t>(v)].pairs) {
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
    // Dedup: only the result matching the worker's live assignment record
    // is applied. Anything else — a duplicate delivery, a result computed
    // for an assignment that timed out and was requeued, a straggler from
    // a rank that has since died — is superseded and must be dropped.
    if (!rec.job.has_value() || rec.job->r0 != r0 || rec.job->version != v) {
      recovery_.bump(recovery_.stale_results);
      return;
    }
    const int gi = rec.job->gi;
    GroupTask& g = groups_[static_cast<std::size_t>(gi)];
    REPRO_CHECK(g.count == count);

    const auto inflight_it = inflight_.find(rec.job->key);
    REPRO_CHECK(inflight_it != inflight_.end());
    inflight_.erase(inflight_it);
    rec.job.reset();

    std::size_t cursor = 3 + static_cast<std::size_t>(count);
    for (int k = 0; k < count; ++k) {
      const int r = r0 + k;
      auto& member_version = g.version[static_cast<std::size_t>(k)];
      if (member_version == -1) {
        // Recovery invariant: kScoreInf keys pin every never-completed
        // group above all real scores, so acceptance (and with it version
        // advance) cannot begin until each group completed once at v0 —
        // cancels and requeues never change a group's key.
        REPRO_CHECK(v == 0);
        ++stats_.first_alignments;
        if (rows_.has_value()) {
          // Replica mode: the worker appended the bottom row for archival.
          const auto len = static_cast<std::size_t>(s_.length() - r);
          std::vector<align::Score> row(
              msg.data.begin() + static_cast<std::ptrdiff_t>(cursor),
              msg.data.begin() + static_cast<std::ptrdiff_t>(cursor + len));
          cursor += len;
          rows_->store(r, row);
        }
        // (Partitioned mode: the worker already routed the row to its
        // owner; cross-rank deposits are tallied at the sending side.)
      } else if (member_version == v) {
        ++stats_.speculative;
      } else {
        ++stats_.realignments;
      }
      g.score[static_cast<std::size_t>(k)] = msg.data.at(3 + static_cast<std::size_t>(k));
      member_version = v;
    }
    REPRO_CHECK(cursor == msg.data.size());
    // Mirror the engines' accounting: lanes x rows x columns per group.
    stats_.cells += static_cast<std::uint64_t>(g.r0 + g.count - 1) *
                    static_cast<std::uint64_t>(s_.length() - g.r0) *
                    static_cast<std::uint64_t>(lanes_);
    ++stats_.queue_pops;
    queue_.push(gi, g.key());
    mark_idle(src);
  }

  Comm& comm_;
  const seq::Sequence& s_;
  const seq::Scoring& scoring_;
  const ClusterOptions& options_;
  RecoveryStats& recovery_;
  align::OverrideTriangle triangle_;
  std::optional<align::BottomRowStore> rows_;  // replica mode only
  std::unordered_map<int, std::vector<std::int16_t>> fetched_;  // partitioned
  int lanes_;
  std::vector<GroupTask> groups_;
  core::GroupQueue queue_;
  std::multiset<TaskKey, KeyCmp> inflight_;
  std::vector<WorkerRec> workers_;  // indexed by rank; [0] unused
  std::vector<int> idle_;
  std::vector<core::TopAlignment> tops_;
  core::FinderStats stats_;
  std::uint64_t replicas_served_ = 0;
};

/// Raised inside a worker when the master shuts the run down (or vanishes)
/// while the worker is mid-protocol — its in-flight work is no longer
/// needed; the search already completed.
struct ShutdownSignal {};

/// Worker rank: private engine, replicated triangle, cached original rows;
/// under partitioned storage also an owner of row shards — though under
/// faults ownership is advisory: any worker rebuilds any v0 row on demand.
class Worker {
 public:
  Worker(Comm& comm, int rank, const seq::Sequence& s,
         const seq::Scoring& scoring, const ClusterOptions& options,
         align::Engine& engine, RecoveryStats& recovery)
      : comm_(comm),
        rank_(rank),
        s_(s),
        scoring_(scoring),
        options_(options),
        recovery_(recovery),
        engine_(engine),
        triangle_(s.length()) {}

  void run() {
    comm_.send(rank_, 0, {kReqWork, {}});
    auto hello_backoff = milliseconds(options_.ft.hello_timeout_ms);
    auto next_hello = Clock::now() + hello_backoff;
    try {
      for (;;) {
        if (!pending_assigns_.empty()) {
          const Message assign = std::move(pending_assigns_.front());
          pending_assigns_.pop_front();
          handle_assign(assign);
          continue;
        }
        const auto got =
            comm_.recv_any_for(rank_, milliseconds(options_.ft.poll_ms));
        if (!got) {
          if (comm_.closed(0)) return;  // master gone (e.g. shutdown dropped)
          // Re-hello until the master provably knows us (first assign):
          // the initial hello may have been dropped by the fault plan.
          if (comm_.fault_active() && !registered_ &&
              Clock::now() >= next_hello) {
            comm_.send(rank_, 0, {kReqWork, {}});
            recovery_.bump(recovery_.retries);
            hello_backoff = next_backoff(hello_backoff, options_.ft);
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
  bool partitioned() const {
    return options_.row_storage == RowStorage::kPartitioned;
  }

  /// Handles any message that can arrive while blocked in a nested wait
  /// (row fetch, version sync) — everything except kAssign (stashed by the
  /// callers: we are busy, the compute must finish first) and kShutdown.
  void dispatch(int src, const Message& msg) {
    switch (msg.tag) {
      case kUpdate:
        apply_update(msg);
        break;
      case kRowRequest:
        serve_row(src, msg.data.at(0));
        break;
      case kRowDeposit:
        owned_rows_.emplace(msg.data.at(0), row_from_message(msg));
        break;
      case kRowReply:
        // Outlived its fetch loop (a resent request answered twice).
        row_cache_.emplace(msg.data.at(0), row_from_message(msg));
        break;
      case kSyncReply:
        apply_sync(msg);
        break;
      case kPing:
        comm_.send(rank_, 0, {kPong, {}});
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
    const int npairs = msg.data.at(1);
    for (int p = 0; p < npairs; ++p)
      triangle_.set(msg.data.at(2 + 2 * static_cast<std::size_t>(p)),
                    msg.data.at(3 + 2 * static_cast<std::size_t>(p)));
    version_ = new_version;
  }

  /// Cumulative sync reply: all pairs of versions 1..target. Idempotent
  /// (triangle bits are monotone), so duplicates and overlaps are safe.
  void apply_sync(const Message& msg) {
    const int to_version = msg.data.at(0);
    if (to_version <= version_) return;  // duplicate or superseded reply
    const int npairs = msg.data.at(1);
    REPRO_DCHECK(msg.data.size() ==
                 2 + 2 * static_cast<std::size_t>(npairs));
    for (int p = 0; p < npairs; ++p)
      triangle_.set(msg.data.at(2 + 2 * static_cast<std::size_t>(p)),
                    msg.data.at(3 + 2 * static_cast<std::size_t>(p)));
    version_ = to_version;
  }

  /// Blocks until the replica reaches `target`, requesting cumulative sync
  /// state from the master with timeout + exponential backoff.
  void sync_to(int target) {
    recovery_.bump(recovery_.sync_requests);
    comm_.send(rank_, 0, {kSyncRequest, {target}});
    auto backoff = milliseconds(options_.ft.row_timeout_ms);
    auto deadline = Clock::now() + backoff;
    while (version_ < target) {
      const auto got =
          comm_.recv_any_for(rank_, milliseconds(options_.ft.poll_ms));
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
      backoff = next_backoff(backoff, options_.ft);
      deadline = Clock::now() + backoff;
    }
  }

  /// Advisory owner of row r among live workers (possibly this rank).
  int owner_of_alive(int r) const {
    std::vector<int> alive;
    for (int w = 1; w < comm_.size(); ++w)
      if (!comm_.closed(w)) alive.push_back(w);
    REPRO_DCHECK(!alive.empty());  // we are alive and a worker
    return alive[static_cast<std::size_t>(r) % alive.size()];
  }

  /// Deterministically recomputes the v0 bottom row of r from scratch (a
  /// single-row group job with no overrides — exactly how it was first
  /// produced). This is what makes partitioned ownership advisory: a lost
  /// deposit or a dead owner costs one recompute, never the run.
  const std::vector<std::int16_t>& rebuild_row(int r) {
    const auto it = owned_rows_.find(r);
    if (it != owned_rows_.end()) return it->second;
    recovery_.bump(recovery_.row_rebuilds);
    align::GroupJob job;
    job.seq = s_.codes();
    job.scoring = &scoring_;
    job.overrides = nullptr;
    job.r0 = r;
    job.count = 1;
    // Local buffer: a rebuild can run nested inside handle_assign (while it
    // waits on a row fetch), which is still using out_rows_.
    std::vector<align::Score> row(static_cast<std::size_t>(s_.length() - r));
    std::vector<std::span<align::Score>> outs{row};
    engine_.align(job, outs);
    std::vector<std::int16_t> narrow(row.size());
    for (std::size_t x = 0; x < row.size(); ++x)
      narrow[x] = static_cast<std::int16_t>(row[x]);
    return owned_rows_.emplace(r, std::move(narrow)).first->second;
  }

  void serve_row(int src, int r) {
    REPRO_CHECK_MSG(partitioned(), "replica mode has no worker-owned rows");
    const auto owned = owned_rows_.find(r);
    if (owned != owned_rows_.end()) {
      comm_.send(rank_, src, make_row_message(kRowReply, r, owned->second));
      return;
    }
    const auto cached = row_cache_.find(r);
    if (cached != row_cache_.end()) {
      comm_.send(rank_, src, make_row_message(kRowReply, r, cached->second));
      return;
    }
    comm_.send(rank_, src, make_row_message(kRowReply, r, rebuild_row(r)));
  }

  /// Original bottom row of r, from the local cache, own partition, or the
  /// row's owner (master in replica mode, a live peer in partitioned mode).
  /// While blocked on the reply the worker keeps servicing peer requests
  /// and deposits — otherwise two waiting owners would deadlock — and
  /// resends with backoff, re-routing around a dead owner.
  const std::vector<std::int16_t>& original_row(int r) {
    if (const auto it = row_cache_.find(r); it != row_cache_.end())
      return it->second;
    if (partitioned()) {
      if (const auto it = owned_rows_.find(r); it != owned_rows_.end())
        return it->second;
    }
    auto backoff = milliseconds(options_.ft.row_timeout_ms);
    for (;;) {
      const int owner = partitioned() ? owner_of_alive(r) : 0;
      if (owner == rank_) return rebuild_row(r);  // shard re-homed to us
      comm_.send(rank_, owner, {kRowRequest, {r}});
      const auto deadline = Clock::now() + backoff;
      for (;;) {
        if (Clock::now() >= deadline) break;
        const auto got =
            comm_.recv_any_for(rank_, milliseconds(options_.ft.poll_ms));
        if (!got) continue;
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
      }
      if (!comm_.fault_active() && !comm_.closed(owner)) continue;
      if (comm_.closed(0)) throw ShutdownSignal{};
      recovery_.bump(recovery_.retries);
      backoff = next_backoff(backoff, options_.ft);
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
    const int m = s_.length();

    align::GroupJob job;
    job.seq = s_.codes();
    job.scoring = &scoring_;
    job.overrides = v == 0 ? nullptr : &triangle_;
    job.r0 = r0;
    job.count = count;
    out_rows_.resize(static_cast<std::size_t>(count));
    std::vector<std::span<align::Score>> outs(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
      out_rows_[static_cast<std::size_t>(k)].resize(
          static_cast<std::size_t>(m - (r0 + k)));
      outs[static_cast<std::size_t>(k)] = out_rows_[static_cast<std::size_t>(k)];
    }
    engine_.align(job, outs);

    Message result;
    result.tag = kResult;
    result.data = {r0, count, v};
    for (int k = 0; k < count; ++k) {
      const int r = r0 + k;
      const auto& row = out_rows_[static_cast<std::size_t>(k)];
      align::Score score;
      if (v == 0) {
        score = align::find_best_end(row).score;
        std::vector<std::int16_t> narrow(row.size());
        for (std::size_t x = 0; x < row.size(); ++x)
          narrow[x] = static_cast<std::int16_t>(row[x]);
        if (partitioned()) {
          // Route the row to its owner (in-process sends are causally
          // ordered before our result reaches the master, so the deposit is
          // always in the owner's mailbox before any consumer's request —
          // and if the fault plan drops it, the owner rebuilds on demand).
          const int owner = owner_of_alive(r);
          if (owner == rank_) {
            owned_rows_.emplace(r, std::move(narrow));
          } else {
            comm_.send(rank_, owner, make_row_message(kRowDeposit, r, narrow));
            recovery_.bump(recovery_.deposits);
            row_cache_.emplace(r, std::move(narrow));  // keep our own copy
          }
        } else {
          // Replica mode: cache locally; the archive copy rides the result.
          row_cache_.emplace(r, std::move(narrow));
        }
      } else {
        score = align::find_best_end(row, original_row(r)).score;
      }
      result.data.push_back(score);
    }
    if (v == 0 && !partitioned()) {
      for (int k = 0; k < count; ++k)
        for (align::Score x : out_rows_[static_cast<std::size_t>(k)])
          result.data.push_back(x);
    }
    comm_.send(rank_, 0, std::move(result));
  }

  Comm& comm_;
  int rank_;
  const seq::Sequence& s_;
  const seq::Scoring& scoring_;
  const ClusterOptions& options_;
  RecoveryStats& recovery_;
  align::Engine& engine_;
  align::OverrideTriangle triangle_;
  int version_ = 0;
  bool registered_ = false;  ///< the master has provably seen our hello
  std::deque<Message> pending_assigns_;
  std::unordered_map<int, std::vector<std::int16_t>> row_cache_;
  std::unordered_map<int, std::vector<std::int16_t>> owned_rows_;
  std::vector<std::vector<align::Score>> out_rows_;
};

}  // namespace

core::FinderResult find_top_alignments_cluster(const seq::Sequence& s,
                                               const seq::Scoring& scoring,
                                               const ClusterOptions& options,
                                               const align::EngineFactory& factory,
                                               ClusterRunInfo* info) {
  REPRO_CHECK(options.ranks >= 1);
  REPRO_CHECK(options.finder.min_score >= 1);
  REPRO_CHECK_MSG(options.finder.memory == core::MemoryMode::kArchiveRows,
                  "the distributed finder manages rows via RowStorage; "
                  "MemoryMode::kRecomputeRows applies to the sequential "
                  "finder only");
  REPRO_CHECK_MSG(options.finder.traceback == core::TracebackMode::kFullMatrix,
                  "the distributed master uses the full-matrix traceback");
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

  std::vector<std::unique_ptr<align::Engine>> engines(
      static_cast<std::size_t>(options.ranks));
  for (int w = 1; w < options.ranks; ++w) {
    engines[static_cast<std::size_t>(w)] = factory();
    REPRO_CHECK(engines[static_cast<std::size_t>(w)] != nullptr);
  }
  const int lanes = engines[1]->lanes();
  for (int w = 2; w < options.ranks; ++w)
    REPRO_CHECK_MSG(engines[static_cast<std::size_t>(w)]->lanes() == lanes,
                    "all worker engines must have the same lane count");

  RecoveryStats recovery;
  Comm comm(options.ranks, options.fault_plan);
  Master master(comm, s, scoring, options, lanes, recovery);
  core::FinderResult result;
  run_ranks(comm, [&](int rank) {
    if (rank == 0) {
      result = master.run();
    } else {
      Worker worker(comm, rank, s, scoring, options,
                    *engines[static_cast<std::size_t>(rank)], recovery);
      worker.run();
    }
  });

  // Publish after the join: stragglers (workers finishing superseded work
  // during shutdown) keep sending — and counting — until their bodies exit.
  const FaultStats faults = comm.fault_stats();
  const auto load = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  if (info != nullptr) {
    info->messages = comm.messages_sent();
    info->payload_words = comm.words_sent();
    info->row_replicas_served = master.replicas_served();
    info->row_deposits = load(recovery.deposits);
    info->messages_by_rank.resize(static_cast<std::size_t>(comm.size()));
    info->payload_words_by_rank.resize(static_cast<std::size_t>(comm.size()));
    for (int rank = 0; rank < comm.size(); ++rank) {
      info->messages_by_rank[static_cast<std::size_t>(rank)] =
          comm.messages_sent_from(rank);
      info->payload_words_by_rank[static_cast<std::size_t>(rank)] =
          comm.words_sent_from(rank);
    }
    info->faults_injected = faults.injected();
    info->retries = load(recovery.retries);
    info->reassignments = load(recovery.reassignments);
    info->heartbeat_misses = load(recovery.heartbeat_misses);
    info->stale_results = load(recovery.stale_results);
    info->row_rebuilds = load(recovery.row_rebuilds);
    info->sync_requests = load(recovery.sync_requests);
    info->workers_lost = load(recovery.workers_lost);
    info->fault_stats = faults;
  }
  if constexpr (obs::kEnabled) {
    auto& reg = obs::Registry::global();
    reg.counter("cluster.messages").add(comm.messages_sent());
    reg.counter("cluster.payload_words").add(comm.words_sent());
    reg.counter("cluster.row_replicas_served").add(master.replicas_served());
    reg.counter("cluster.row_deposits").add(load(recovery.deposits));
    reg.counter("cluster.ranks").add(static_cast<std::uint64_t>(comm.size()));
    reg.counter("cluster.faults_injected").add(faults.injected());
    reg.counter("cluster.retries").add(load(recovery.retries));
    reg.counter("cluster.reassignments").add(load(recovery.reassignments));
    reg.counter("cluster.heartbeat_misses").add(load(recovery.heartbeat_misses));
    reg.counter("cluster.stale_results").add(load(recovery.stale_results));
    reg.counter("cluster.row_rebuilds").add(load(recovery.row_rebuilds));
    reg.counter("cluster.sync_requests").add(load(recovery.sync_requests));
    reg.counter("cluster.workers_lost").add(load(recovery.workers_lost));
    for (int rank = 0; rank < comm.size(); ++rank) {
      const std::string suffix = ".rank" + std::to_string(rank);
      reg.counter("cluster.messages" + suffix)
          .add(comm.messages_sent_from(rank));
      reg.counter("cluster.payload_words" + suffix)
          .add(comm.words_sent_from(rank));
    }
  }
  core::publish_finder_stats(result.stats, s.length(), "cluster.");
  return result;
}

}  // namespace repro::cluster
