#include "cluster/mpisim.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "util/check.hpp"

namespace repro::cluster {
namespace {

/// Poll quantum for waits that must make progress without a notify: held
/// (delayed) messages are released on tick advancement, and ticks advance
/// on sends and on these polls, so a delayed message is never stranded.
constexpr auto kTickQuantum = std::chrono::milliseconds(1);

}  // namespace

Comm::Comm(int size) : Comm(size, FaultPlan{}) {}

Comm::Comm(int size, FaultPlan plan)
    : per_rank_(static_cast<std::size_t>(size)),
      plan_(std::move(plan)),
      closed_(static_cast<std::size_t>(size)),
      crashed_(static_cast<std::size_t>(size)) {
  REPRO_CHECK(size >= 1);
  boxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
    boxes_.back()->held.resize(static_cast<std::size_t>(size));
  }
  init_plan();
}

void Comm::init_plan() {
  const auto n = static_cast<std::size_t>(size());
  channel_sends_.assign(n * n, 0);
  rank_ops_.assign(n, 0);
  crash_at_.assign(n, std::numeric_limits<std::uint64_t>::max());
  by_channel_.assign(n * n, {});
  fault_ = !plan_.empty();
  has_delays_ = plan_.has_delays();
  for (const FaultEvent& ev : plan_.events) {
    REPRO_CHECK(ev.from >= 0 && ev.from < size());
    if (ev.kind == FaultKind::kCrash) {
      auto& at = crash_at_[static_cast<std::size_t>(ev.from)];
      at = std::min(at, std::max<std::uint64_t>(ev.op, 1));
      continue;
    }
    if (ev.kind == FaultKind::kKill) {
      kills_.emplace_back(ev.op, ev.from);
      continue;
    }
    REPRO_CHECK(ev.to >= 0 && ev.to < size());
    by_channel_[static_cast<std::size_t>(ev.from) * n +
                static_cast<std::size_t>(ev.to)]
        .emplace_back(ev.op, &ev);
  }
  for (auto& channel : by_channel_)
    std::sort(channel.begin(), channel.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(kills_.begin(), kills_.end());
}

const FaultEvent* Comm::event_for(int from, int to, std::uint64_t op) const {
  const auto& channel =
      by_channel_[static_cast<std::size_t>(from) * static_cast<std::size_t>(size()) +
                  static_cast<std::size_t>(to)];
  const auto it = std::lower_bound(
      channel.begin(), channel.end(), op,
      [](const auto& entry, std::uint64_t key) { return entry.first < key; });
  if (it != channel.end() && it->first == op) return it->second;
  return nullptr;
}

void Comm::note_op(int rank) {
  if (!fault_) return;
  const auto r = static_cast<std::size_t>(rank);
  ++rank_ops_[r];  // own-thread only: each rank is driven by a single thread
  while (rank == 0 && next_kill_ < kills_.size() &&
         kills_[next_kill_].first <= rank_ops_[0])
    fire_crash(kills_[next_kill_++].second);
  if (crashed_[r].load(std::memory_order_acquire)) throw RankCrashed(rank);
  if (rank_ops_[r] < crash_at_[r]) return;
  crash_at_[r] = std::numeric_limits<std::uint64_t>::max();  // decide once
  if (fire_crash(rank)) throw RankCrashed(rank);
}

bool Comm::fire_crash(int rank) {
  const auto r = static_cast<std::size_t>(rank);
  std::lock_guard lock(crash_mutex_);
  if (!crashes_armed_ || crashed_[r].load(std::memory_order_relaxed) ||
      closed_[r].load(std::memory_order_acquire))
    return false;
  crashes_.fetch_add(1, std::memory_order_relaxed);
  crashed_[r].store(true, std::memory_order_release);
  return true;
}

void Comm::disarm_crashes() {
  std::lock_guard lock(crash_mutex_);
  crashes_armed_ = false;
}

bool Comm::flush_held(Mailbox& box) {
  bool released = false;
  const std::uint64_t now = tick_.load(std::memory_order_relaxed);
  for (std::size_t from = 0; from < box.held.size(); ++from) {
    auto& channel = box.held[from];
    while (!channel.empty() && channel.front().release_tick <= now) {
      box.queue.emplace_back(static_cast<int>(from),
                             std::move(channel.front().msg));
      channel.pop_front();
      released = true;
    }
  }
  return released;
}

void Comm::send(int from, int to, Message msg) {
  REPRO_CHECK(from >= 0 && from < size() && to >= 0 && to < size());
  note_op(from);
  messages_.fetch_add(1, std::memory_order_relaxed);
  words_.fetch_add(msg.data.size() + 1, std::memory_order_relaxed);
  RankCounters& rc = per_rank_[static_cast<std::size_t>(from)];
  rc.messages.fetch_add(1, std::memory_order_relaxed);
  rc.words.fetch_add(msg.data.size() + 1, std::memory_order_relaxed);
  tick_.fetch_add(1, std::memory_order_relaxed);
  if (closed_[static_cast<std::size_t>(to)].load(std::memory_order_acquire))
    return;  // the peer exited; the message vanishes on the wire
  Mailbox& box = *boxes_[static_cast<std::size_t>(to)];
  {
    std::lock_guard lock(box.mutex);
    const FaultEvent* ev = nullptr;
    if (fault_) {
      const std::size_t channel = static_cast<std::size_t>(from) *
                                      static_cast<std::size_t>(size()) +
                                  static_cast<std::size_t>(to);
      ev = event_for(from, to, channel_sends_[channel]);
      ++channel_sends_[channel];
    }
    auto& held = box.held[static_cast<std::size_t>(from)];
    const auto deliver = [&](Message m) {
      // FIFO per channel: while earlier messages are held, later ones must
      // queue behind them (release_tick 0 = releasable immediately after).
      if (!held.empty())
        held.push_back({std::move(m), 0});
      else
        box.queue.emplace_back(from, std::move(m));
    };
    if (ev == nullptr) {
      deliver(std::move(msg));
    } else {
      switch (ev->kind) {
        case FaultKind::kDrop:
          drops_.fetch_add(1, std::memory_order_relaxed);
          break;
        case FaultKind::kDuplicate: {
          duplicates_.fetch_add(1, std::memory_order_relaxed);
          Message copy = msg;
          deliver(std::move(copy));
          deliver(std::move(msg));
          break;
        }
        case FaultKind::kDelay:
          delays_.fetch_add(1, std::memory_order_relaxed);
          held.push_back(
              {std::move(msg),
               tick_.load(std::memory_order_relaxed) + std::max<std::uint64_t>(
                                                           ev->ticks, 1)});
          break;
        case FaultKind::kCrash:
        case FaultKind::kKill:
          break;  // unreachable: crash and kill events never map to channels
      }
    }
    flush_held(box);
  }
  box.cv.notify_all();
}

void Comm::broadcast(int from, const Message& msg) {
  for (int to = 0; to < size(); ++to)
    if (to != from) send(from, to, msg);
}

std::optional<std::pair<int, Message>> Comm::recv_any_for(
    int to, std::chrono::milliseconds timeout) {
  REPRO_CHECK(to >= 0 && to < size());
  Mailbox& box = *boxes_[static_cast<std::size_t>(to)];
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock lock(box.mutex);
  for (;;) {
    flush_held(box);
    if (!box.queue.empty()) {
      note_op(to);
      auto front = std::move(box.queue.front());
      box.queue.pop_front();
      return front;
    }
    bool any_held = false;
    for (const auto& channel : box.held) any_held |= !channel.empty();
    if (!any_held && closed_count_.load(std::memory_order_acquire) >=
                         size() - (closed(to) ? 0 : 1))
      throw ChannelClosed(to);  // every peer is gone; nothing can arrive
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    const auto slice = has_delays_
                           ? std::min<std::chrono::steady_clock::duration>(
                                 kTickQuantum, deadline - now)
                           : deadline - now;
    box.cv.wait_for(lock, slice);
    if (has_delays_) tick_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Comm::close(int rank) {
  REPRO_CHECK(rank >= 0 && rank < size());
  if (closed_[static_cast<std::size_t>(rank)].exchange(
          true, std::memory_order_acq_rel))
    return;  // idempotent
  closed_count_.fetch_add(1, std::memory_order_acq_rel);
  // Wake every blocked receive so it can re-evaluate its closed condition.
  for (auto& box : boxes_) {
    { std::lock_guard lock(box->mutex); }
    box->cv.notify_all();
  }
}

bool Comm::closed(int rank) const {
  REPRO_CHECK(rank >= 0 && rank < size());
  const auto r = static_cast<std::size_t>(rank);
  return closed_[r].load(std::memory_order_acquire) ||
         crashed_[r].load(std::memory_order_acquire);
}

FaultStats Comm::fault_stats() const {
  FaultStats stats;
  stats.drops = drops_.load(std::memory_order_relaxed);
  stats.delays = delays_.load(std::memory_order_relaxed);
  stats.duplicates = duplicates_.load(std::memory_order_relaxed);
  stats.crashes = crashes_.load(std::memory_order_relaxed);
  return stats;
}

std::uint64_t Comm::messages_sent() const {
  return messages_.load(std::memory_order_relaxed);
}

std::uint64_t Comm::words_sent() const {
  return words_.load(std::memory_order_relaxed);
}

std::uint64_t Comm::messages_sent_from(int rank) const {
  REPRO_CHECK(rank >= 0 && rank < size());
  return per_rank_[static_cast<std::size_t>(rank)].messages.load(
      std::memory_order_relaxed);
}

std::uint64_t Comm::words_sent_from(int rank) const {
  REPRO_CHECK(rank >= 0 && rank < size());
  return per_rank_[static_cast<std::size_t>(rank)].words.load(
      std::memory_order_relaxed);
}

void run_ranks(Comm& comm, const std::function<void(int)>& body) {
  std::mutex error_mutex;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(comm.size()));
  for (int rank = 0; rank < comm.size(); ++rank) {
    threads.emplace_back([&, rank] {
      try {
        body(rank);
      } catch (const RankCrashed&) {
        // A scheduled fault-plan death: the rank simply stops; survivors
        // observe its closed channel and recover.
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      comm.close(rank);
    });
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace repro::cluster
