// Deterministic fault plans for the message substrate (chaos testing).
//
// The paper's cluster finder assumes a reliable Myrinet interconnect; a
// production deployment cannot. A FaultPlan is a *pre-computed, seeded*
// schedule of message faults — drop, bounded delay, duplicate delivery, and
// rank crash or kill — that Comm (cluster/mpisim.hpp) injects while
// preserving FIFO ordering within each (source, destination) channel.
// Because every fault is keyed on a deterministic op index (the Nth send on
// a channel, the Nth communication op a rank performs, or for a kill the
// master's Nth op) rather than on wall-clock time, a plan is fully
// reproducible from its seed or its spec string, and the chaos suite
// (tests/cluster_fault_test.cpp) can assert that the recovered run accepts
// byte-identical top alignments under every schedule. A crash fires only if
// its rank gets that far before the master finishes, which depends on
// thread scheduling; a kill fires whenever the master gets that far, which
// the protocol's message count bounds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace repro::cluster {

enum class FaultKind {
  kDrop,       ///< the Nth send on (from, to) is silently discarded
  kDelay,      ///< the Nth send on (from, to) is held for `ticks` net ticks
               ///< (later sends on the channel queue behind it — FIFO holds)
  kDuplicate,  ///< the Nth send on (from, to) is delivered twice, back to back
  kCrash,      ///< rank `from` stops at its Nth communication op (its channel
               ///< closes; peers observe ChannelClosed instead of silence),
               ///< unless the master has finished the search first
  kKill,       ///< rank `from` is stopped when the master (rank 0) performs
               ///< its Nth communication op — an outside kill, so it fires
               ///< however far the victim itself has got
};

struct FaultEvent {
  FaultKind kind = FaultKind::kDrop;
  int from = 0;            ///< sender rank (kCrash/kKill: the dying rank)
  int to = 0;              ///< receiver rank (unused by kCrash/kKill)
  std::uint64_t op = 0;    ///< 0-based channel send index; the dying rank's
                           ///< op index for kCrash, the master's for kKill
  std::uint64_t ticks = 0; ///< kDelay only: release after this many net ticks
};

/// An ordered set of fault events. Empty plan = fault-free run.
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
  /// Ranks scheduled to crash or be killed (deduplicated).
  [[nodiscard]] std::vector<int> crashed_ranks() const;
  /// True when at least one event is a kDelay (Comm then polls its waits so
  /// held messages are guaranteed to be released).
  [[nodiscard]] bool has_delays() const;

  /// Round-trippable spec string, one event per ';':
  ///   drop:from=1,to=0,op=3
  ///   delay:from=0,to=2,op=0,ticks=64
  ///   dup:from=2,to=0,op=5
  ///   crash:rank=3,op=40
  ///   kill:rank=2,op=200
  [[nodiscard]] std::string to_string() const;

  /// Parses the spec grammar above; throws std::runtime_error with the
  /// offending token on malformed input. Whitespace is ignored.
  static FaultPlan parse(std::string_view spec);

  /// Deterministic seeded chaos schedule for a `ranks`-rank communicator:
  /// per-channel drop/delay/duplicate events plus at most workers-1 rank
  /// crashes — rank 0 (the master) never crashes and at least one worker
  /// always survives, the regime in which the finder guarantees recovery.
  static FaultPlan from_seed(std::uint64_t seed, int ranks);
};

/// Injection counts, filled in by Comm as the plan fires. A scheduled event
/// whose (channel, op) is never reached does not count.
struct FaultStats {
  std::uint64_t drops = 0;
  std::uint64_t delays = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t crashes = 0;  ///< kCrash and kKill deaths

  [[nodiscard]] std::uint64_t injected() const {
    return drops + delays + duplicates + crashes;
  }
};

}  // namespace repro::cluster
