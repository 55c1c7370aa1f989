// Fault tolerance of the distributed finder: deterministic fault plans,
// closed-channel semantics, task deadlines under slow sweeps, and the chaos
// matrix — under every seeded schedule of drops/delays/duplicates/crashes
// that leaves the master and at least one worker alive, the cluster finder
// must accept top alignments identical to the sequential finder's.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/fault.hpp"
#include "cluster/master_worker.hpp"
#include "cluster/mpisim.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "seq/generator.hpp"

namespace repro::cluster {
namespace {

using core::FinderOptions;
using core::MemoryMode;
using seq::Scoring;

// ---------------------------------------------------------------------------
// FaultPlan: spec grammar, seeding, invariants.

TEST(FaultPlan, ParsesSpecGrammar) {
  const auto plan = FaultPlan::parse(
      "drop:from=1,to=0,op=3; delay:from=0,to=2,op=0,ticks=64;"
      "dup:from=2,to=0,op=5; crash:rank=3,op=40");
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kDrop);
  EXPECT_EQ(plan.events[0].from, 1);
  EXPECT_EQ(plan.events[0].to, 0);
  EXPECT_EQ(plan.events[0].op, 3u);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kDelay);
  EXPECT_EQ(plan.events[1].ticks, 64u);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kDuplicate);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events[3].from, 3);
  EXPECT_EQ(plan.crashed_ranks(), std::vector<int>{3});
  EXPECT_TRUE(plan.has_delays());
}

TEST(FaultPlan, ToStringRoundTrips) {
  const char* spec =
      "drop:from=1,to=0,op=3;delay:from=0,to=2,op=0,ticks=64;"
      "dup:from=2,to=0,op=5;crash:rank=3,op=40";
  EXPECT_EQ(FaultPlan::parse(spec).to_string(), spec);
  EXPECT_EQ(FaultPlan::parse(FaultPlan::parse(spec).to_string()).to_string(),
            spec);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("nonsense"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("explode:from=0,to=1,op=2"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("drop:from=1"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("drop:from=1,to=0,op=x"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("delay:from=0,to=1,op=2"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("drop:from=0,to=1,op=1,ticks=4"),
               std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("crash:rank=1,to=0,op=4"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("drop:from=0,to=1,op=2,why=5"),
               std::runtime_error);
}

TEST(FaultPlan, KillGrammar) {
  const char* spec = "kill:rank=2,op=200;crash:rank=3,op=40";
  const auto plan = FaultPlan::parse(spec);
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kKill);
  EXPECT_EQ(plan.events[0].from, 2);
  EXPECT_EQ(plan.events[0].op, 200u);
  EXPECT_EQ(plan.crashed_ranks(), (std::vector<int>{2, 3}));
  EXPECT_EQ(plan.to_string(), spec);
  EXPECT_EQ(FaultPlan::parse("kill:rank=1,op=3").crashed_ranks(),
            std::vector<int>{1});
  EXPECT_THROW(FaultPlan::parse("kill:rank=1,to=0,op=3"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("kill:rank=1"), std::runtime_error);
}

TEST(FaultPlan, SeededPlansAreDeterministic) {
  for (std::uint64_t seed : {1u, 7u, 99u}) {
    const auto a = FaultPlan::from_seed(seed, 4);
    const auto b = FaultPlan::from_seed(seed, 4);
    EXPECT_EQ(a.to_string(), b.to_string()) << "seed " << seed;
    EXPECT_FALSE(a.empty());
  }
  EXPECT_NE(FaultPlan::from_seed(1, 4).to_string(),
            FaultPlan::from_seed(2, 4).to_string());
}

TEST(FaultPlan, SeededPlansRespectRecoveryRegime) {
  // Never crash the master; always leave at least one worker alive; never
  // crash at all with a single worker.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (int ranks : {2, 3, 8}) {
      const auto crashed = FaultPlan::from_seed(seed, ranks).crashed_ranks();
      for (int c : crashed) {
        EXPECT_GT(c, 0) << "seed " << seed;
        EXPECT_LT(c, ranks) << "seed " << seed;
      }
      EXPECT_LT(static_cast<int>(crashed.size()), ranks - 1)
          << "seed " << seed << " ranks " << ranks;
    }
  }
}

// ---------------------------------------------------------------------------
// Comm under injection: per-event semantics and closed-channel behavior.

constexpr auto kWait = std::chrono::seconds(5);

/// The next message rank 1 receives, which must come from rank 0 (the only
/// sender in these two-rank tests); throws if none arrives within kWait.
Message recv_at_1(Comm& comm) {
  auto [src, msg] = comm.recv_any_for(1, kWait).value();
  EXPECT_EQ(src, 0);
  return std::move(msg);
}

TEST(CommFault, DropsScheduledMessage) {
  Comm comm(2, FaultPlan::parse("drop:from=0,to=1,op=1"));
  for (int k = 0; k < 3; ++k) comm.send(0, 1, {k, {}});
  EXPECT_EQ(recv_at_1(comm).tag, 0);
  EXPECT_EQ(recv_at_1(comm).tag, 2);  // op 1 vanished
  EXPECT_EQ(comm.fault_stats().drops, 1u);
  EXPECT_EQ(comm.messages_sent(), 3u);  // attempts are still counted
}

TEST(CommFault, DuplicateDeliveredBackToBack) {
  Comm comm(2, FaultPlan::parse("dup:from=0,to=1,op=0"));
  comm.send(0, 1, {5, {42}});
  comm.send(0, 1, {6, {}});
  EXPECT_EQ(recv_at_1(comm).tag, 5);
  EXPECT_EQ(recv_at_1(comm).tag, 5);
  EXPECT_EQ(recv_at_1(comm).tag, 6);
  EXPECT_EQ(comm.fault_stats().duplicates, 1u);
}

TEST(CommFault, DelayPreservesChannelFifo) {
  // Message 0 is held; message 1 must queue behind it, not overtake.
  Comm comm(2, FaultPlan::parse("delay:from=0,to=1,op=0,ticks=8"));
  comm.send(0, 1, {0, {}});
  comm.send(0, 1, {1, {}});
  EXPECT_EQ(recv_at_1(comm).tag, 0);
  EXPECT_EQ(recv_at_1(comm).tag, 1);
  EXPECT_EQ(comm.fault_stats().delays, 1u);
}

TEST(CommFault, CrashFiresAtScheduledOp) {
  Comm comm(2, FaultPlan::parse("crash:rank=1,op=2"));
  std::atomic<int> sends_completed{0};
  run_ranks(comm, [&](int rank) {
    if (rank == 1) {
      comm.send(1, 0, {1, {}});
      ++sends_completed;
      comm.send(1, 0, {2, {}});  // op 2: dies here
      ++sends_completed;
    }
  });
  EXPECT_EQ(sends_completed.load(), 1);
  EXPECT_TRUE(comm.closed(1));
  EXPECT_EQ(comm.fault_stats().crashes, 1u);
  EXPECT_TRUE(comm.closed(0));  // rank 0 exited too (normally)
}

TEST(CommFault, KillFiresAtMastersOp) {
  // The victim is stopped at the master's second op, however far it has got
  // itself; it reads as closed at once and throws at its next op.
  Comm comm(2, FaultPlan::parse("kill:rank=1,op=2"));
  comm.send(0, 1, {1, {}});
  EXPECT_FALSE(comm.closed(1));
  comm.send(0, 1, {2, {}});
  EXPECT_TRUE(comm.closed(1));
  EXPECT_EQ(comm.fault_stats().crashes, 1u);
  EXPECT_THROW((void)comm.recv_any_for(1, kWait), RankCrashed);
  comm.send(0, 1, {3, {}});
  EXPECT_EQ(comm.fault_stats().crashes, 1u);  // counted once
}

TEST(CommFault, DisarmedCrashesAndKillsDoNotFire) {
  Comm comm(2, FaultPlan::parse("kill:rank=1,op=1;crash:rank=1,op=2"));
  comm.disarm_crashes();
  comm.send(0, 1, {1, {}});
  comm.send(1, 0, {1, {}});
  comm.send(1, 0, {2, {}});
  EXPECT_FALSE(comm.closed(1));
  EXPECT_EQ(comm.fault_stats().crashes, 0u);
}

TEST(CommFault, RecvOnClosedSourceThrows) {
  Comm comm(2);
  comm.close(0);
  EXPECT_THROW((void)comm.recv_any_for(1, kWait), ChannelClosed);
}

TEST(CommFault, QueuedMessagesDrainBeforeClosedThrows) {
  Comm comm(2);
  comm.send(0, 1, {4, {11}});
  comm.close(0);
  EXPECT_EQ(recv_at_1(comm).data.at(0), 11);  // already-sent data survives
  EXPECT_THROW((void)comm.recv_any_for(1, kWait), ChannelClosed);
}

TEST(CommFault, SendToClosedRankIsDiscarded) {
  Comm comm(2);
  comm.close(1);
  comm.send(0, 1, {3, {}});  // must not throw; the peer can never receive
  EXPECT_EQ(comm.messages_sent(), 1u);
  EXPECT_FALSE(comm.recv_any_for(1, std::chrono::milliseconds(0)).has_value());
  EXPECT_FALSE(comm.closed(0));
}

TEST(CommFault, RecvAnyForTimesOut) {
  Comm comm(2);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(comm.recv_any_for(1, std::chrono::milliseconds(30)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(25));
  comm.send(0, 1, {2, {}});
  const auto got = comm.recv_any_for(1, std::chrono::milliseconds(1000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second.tag, 2);
}

// Regression: this exact shape deadlocked before closed-channel signaling —
// rank 0 exits without sending, rank 1 blocks in recv forever. It must now
// fail fast (well within the 5 s watchdog) with ChannelClosed, which
// run_ranks surfaces as the run's error.
TEST(CommFault, RecvAfterPeerExitFailsFastNotDeadlock) {
  struct Probe {
    std::atomic<bool> finished{false};
    std::atomic<bool> channel_closed_thrown{false};
  };
  auto probe = std::make_shared<Probe>();
  std::thread runner([probe] {
    Comm comm(2);
    try {
      run_ranks(comm, [&](int rank) {
        // Rank 0 exits immediately; the wait outlasts the watchdog.
        if (rank == 1) (void)comm.recv_any_for(1, std::chrono::minutes(10));
      });
    } catch (const ChannelClosed&) {
      probe->channel_closed_thrown = true;
    }
    probe->finished = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!probe->finished.load() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (!probe->finished.load()) {
    runner.detach();  // leak the wedged thread; the probe keeps state alive
    FAIL() << "recv after peer exit still deadlocks";
  }
  runner.join();
  EXPECT_TRUE(probe->channel_closed_thrown.load());
}

// ---------------------------------------------------------------------------
// Cluster finder under chaos.

core::FinderResult run_faulted(const seq::Sequence& s, const Scoring& scoring,
                               int ranks, MemoryMode memory, FaultPlan plan,
                               int tops, ClusterRunInfo* info = nullptr) {
  ClusterOptions copt;
  copt.ranks = ranks;
  copt.finder.memory = memory;
  copt.finder.num_top_alignments = tops;
  copt.fault_plan = std::move(plan);
  return find_top_alignments_cluster(
      s, scoring, copt, align::engine_factory(align::EngineKind::kScalar),
      info);
}

class ChaosMatrixTest
    : public ::testing::TestWithParam<std::tuple<MemoryMode, int>> {};

TEST_P(ChaosMatrixTest, SeededSchedulesMatchSequential) {
  const auto [memory, ranks] = GetParam();
  const auto g = seq::synthetic_titin(140, 91);
  FinderOptions opt;
  opt.num_top_alignments = 4;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::protein_default(), opt, *scalar);

  std::uint64_t total_injected = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    ClusterRunInfo info;
    const auto res = run_faulted(g.sequence, Scoring::protein_default(), ranks,
                                 memory, FaultPlan::from_seed(seed, ranks),
                                 opt.num_top_alignments, &info);
    std::string diff;
    ASSERT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
        << "seed " << seed << ", ranks " << ranks
        << (memory == MemoryMode::kRecomputeRows ? ", low memory" : "")
        << ": " << diff;
    total_injected += info.fault_stats.injected();
    EXPECT_EQ(info.workers_lost, info.fault_stats.crashes) << "seed " << seed;
  }
  // Across 50 seeded schedules real faults must actually have fired — a
  // suite that injects nothing proves nothing.
  EXPECT_GT(total_injected, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    StorageByRanks, ChaosMatrixTest,
    ::testing::Combine(::testing::Values(MemoryMode::kArchiveRows,
                                         MemoryMode::kRecomputeRows),
                       ::testing::Values(2, 3, 4, 8)),
    [](const auto& info) {
      // Archived rows reach workers as replicas of the master's archive.
      const MemoryMode memory = std::get<0>(info.param);
      return std::string(memory == MemoryMode::kRecomputeRows ? "Recompute"
                                                              : "Replica") +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Targeted schedules: the specific failure windows called out in the issue.

struct ChaosFixture {
  seq::GeneratedSequence g = seq::synthetic_titin(140, 91);
  FinderOptions opt;
  core::FinderResult reference;

  ChaosFixture() {
    opt.num_top_alignments = 4;
    const auto scalar = align::make_engine(align::EngineKind::kScalar);
    reference = core::find_top_alignments(g.sequence,
                                          Scoring::protein_default(), opt,
                                          *scalar);
  }

  void expect_identical(const core::FinderResult& res,
                        const std::string& label) const {
    std::string diff;
    EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
        << label << ": " << diff;
  }
};

// The fixture's scalar engine makes 139 one-row groups, so before it stops
// the master performs at least 1 + 2 * 139 + 4 * (ranks - 1) ops: a hello,
// an assign and a result per group of the first sweep, and one update
// broadcast per accepted top. A kill keyed below that always fires, however
// the threads are scheduled; a crash keyed on the victim's own ops need not.

TEST(ChaosTargeted, CrashBeforeFirstTask) {
  // Worker 1 is killed at the master's first op, before any task is
  // assigned: the master must detect the closed channel and finish the run
  // on worker 2 alone.
  ChaosFixture fx;
  ClusterRunInfo info;
  const auto res =
      run_faulted(fx.g.sequence, Scoring::protein_default(), 3,
                  MemoryMode::kArchiveRows, FaultPlan::parse("kill:rank=1,op=1"),
                  fx.opt.num_top_alignments, &info);
  fx.expect_identical(res, "crash before first task");
  EXPECT_EQ(info.workers_lost, 1u);
  EXPECT_EQ(info.fault_stats.crashes, 1u);
}

TEST(ChaosTargeted, CrashMidBroadcastWindow) {
  // A worker is killed deep in the run: with three hellos the first sweep
  // ends at the master's op 281 and the first update goes out at ops
  // 282-284, so op 286 falls as the first realignments are assigned (a
  // retried hello moves it earlier). The run must finish on the survivors,
  // which go on receiving the updates the victim misses.
  ChaosFixture fx;
  ClusterRunInfo info;
  const auto res =
      run_faulted(fx.g.sequence, Scoring::protein_default(), 4,
                  MemoryMode::kArchiveRows, FaultPlan::parse("kill:rank=2,op=286"),
                  fx.opt.num_top_alignments, &info);
  fx.expect_identical(res, "crash mid broadcast");
  EXPECT_EQ(info.fault_stats.crashes, 1u);
  EXPECT_EQ(info.workers_lost, 1u);
}

TEST(ChaosTargeted, SurvivorRealignsRowsOfDeadWorker) {
  // Worker 2's first two hellos are dropped, so worker 1 alone runs the
  // first sweep (worker 2's retried hello lands 120 ms in), and its rows
  // reach the master's archive with its results. With one hello the first
  // sweep ends at the master's op 279 and the first update goes out at ops
  // 280-281, so the kill at op 285 falls among the first realignments. Every
  // realignment worker 2 then runs is of a group worker 1 swept first, and
  // needs that group's row as a replica from the master.
  ChaosFixture fx;
  const FaultPlan plan = FaultPlan::parse(
      "kill:rank=1,op=285;drop:from=2,to=0,op=0;drop:from=2,to=0,op=1");
  ClusterRunInfo info;
  const auto res =
      run_faulted(fx.g.sequence, Scoring::protein_default(), 3,
                  MemoryMode::kArchiveRows, plan, fx.opt.num_top_alignments,
                  &info);
  fx.expect_identical(res, "survivor realigns a dead worker's groups");
  EXPECT_EQ(info.workers_lost, 1u);
  EXPECT_GT(info.row_replicas_served, 0u);
}

TEST(ChaosTargeted, AllMessagesDelayed) {
  // Every channel jittered on every early op: nothing is lost, everything
  // is late. FIFO-per-channel must hold and the result must not change.
  ChaosFixture fx;
  FaultPlan plan;
  for (int from = 0; from < 3; ++from)
    for (int to = 0; to < 3; ++to) {
      if (from == to) continue;
      for (std::uint64_t op = 0; op < 120; ++op)
        plan.events.push_back(
            {FaultKind::kDelay, from, to, op, 2 + (op % 7)});
    }
  ClusterRunInfo info;
  const auto res =
      run_faulted(fx.g.sequence, Scoring::protein_default(), 3,
                  MemoryMode::kArchiveRows, std::move(plan),
                  fx.opt.num_top_alignments, &info);
  fx.expect_identical(res, "all messages delayed");
  EXPECT_GT(info.fault_stats.delays, 0u);
  EXPECT_EQ(info.workers_lost, 0u);
}

TEST(ChaosTargeted, MostWorkersCrashStaggered) {
  // Six of seven workers are killed at staggered points of the first
  // sweep; the lone survivor must absorb every reassignment and still
  // reproduce the sequential result.
  ChaosFixture fx;
  FaultPlan plan = FaultPlan::parse(
      "kill:rank=2,op=10;kill:rank=3,op=20;kill:rank=4,op=30;"
      "kill:rank=5,op=40;kill:rank=6,op=50;kill:rank=7,op=60");
  ClusterRunInfo info;
  const auto res =
      run_faulted(fx.g.sequence, Scoring::protein_default(), 8,
                  MemoryMode::kArchiveRows, std::move(plan),
                  fx.opt.num_top_alignments, &info);
  fx.expect_identical(res, "staggered mass crash");
  EXPECT_EQ(info.fault_stats.crashes, 6u);
  EXPECT_EQ(info.workers_lost, 6u);
  core::validate_tops(res.tops, fx.g.sequence, Scoring::protein_default());
}

TEST(ChaosTargeted, RecoveryCountersSurfaceInRunInfo) {
  // Heavy drop schedule on the master->worker assign channel: recovery must
  // go through the timeout/requeue machinery and say so in the counters.
  ChaosFixture fx;
  FaultPlan plan;
  for (std::uint64_t op = 0; op < 6; ++op)
    plan.events.push_back({FaultKind::kDrop, 0, 1, op, 0});
  ClusterRunInfo info;
  const auto res =
      run_faulted(fx.g.sequence, Scoring::protein_default(), 3,
                  MemoryMode::kArchiveRows, std::move(plan),
                  fx.opt.num_top_alignments, &info);
  fx.expect_identical(res, "assign drops");
  EXPECT_GT(info.fault_stats.injected(), 0u);
  EXPECT_GT(info.heartbeat_misses + info.retries + info.stale_results, 0u);
}

TEST(ChaosTargeted, PlanCrashingMasterIsRejected) {
  ChaosFixture fx;
  EXPECT_THROW(run_faulted(fx.g.sequence, Scoring::protein_default(), 3,
                           MemoryMode::kArchiveRows,
                           FaultPlan::parse("crash:rank=0,op=5"),
                           fx.opt.num_top_alignments),
               std::logic_error);
}

TEST(ChaosTargeted, PlanKillingAllWorkersIsRejected) {
  ChaosFixture fx;
  EXPECT_THROW(run_faulted(fx.g.sequence, Scoring::protein_default(), 3,
                           MemoryMode::kArchiveRows,
                           FaultPlan::parse("crash:rank=1,op=5;crash:rank=2,op=9"),
                           fx.opt.num_top_alignments),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Sweeps slower than the task deadline.

/// Scalar engine that sleeps through every realignment sweep (a job with an
/// override triangle), so each one outlasts the least task deadline.
class SlowRealignEngine final : public align::Engine {
 public:
  explicit SlowRealignEngine(std::chrono::milliseconds nap) : nap_(nap) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int lanes() const override { return inner_->lanes(); }

 protected:
  void do_align(const align::GroupJob& job,
                std::span<const std::span<align::Score>> out) override {
    if (job.overrides != nullptr) std::this_thread::sleep_for(nap_);
    inner_->align(job, out);
  }

 private:
  std::unique_ptr<align::Engine> inner_ =
      align::make_engine(align::EngineKind::kScalar);
  std::chrono::milliseconds nap_;
};

/// What a slow-sweep cluster run reports back to the test thread.
struct SlowRun {
  std::atomic<bool> finished{false};
  // Written by the runner before `finished`; read only after the join.
  std::string error;
  bool matched = false;
  std::uint64_t misses = 0;
  std::uint64_t drops = 0;
  std::vector<std::uint64_t> messages_by_rank;
};

/// Runs titin m=100 (4 tops) on 3 ranks whose engines sleep `nap` in every
/// realignment sweep, under `plan`; the default plan's one drop is never
/// reached: deadlines are armed, nothing is lost. Returns null when the run
/// did not finish within the watchdog's 120 s (the runner is then leaked).
std::shared_ptr<SlowRun> run_slow_sweeps(
    std::chrono::milliseconds nap,
    const std::string& plan = "drop:from=1,to=0,op=1000000") {
  auto probe = std::make_shared<SlowRun>();
  std::thread runner([probe, nap, plan] {
    try {
      const auto g = seq::synthetic_titin(100, 91);
      FinderOptions opt;
      opt.num_top_alignments = 4;
      const auto reference = core::find_top_alignments(
          g.sequence, Scoring::protein_default(), opt,
          *align::make_engine(align::EngineKind::kScalar));
      ClusterOptions copt;
      copt.ranks = 3;
      copt.finder = opt;
      copt.fault_plan = FaultPlan::parse(plan);
      ClusterRunInfo info;
      const auto res = find_top_alignments_cluster(
          g.sequence, Scoring::protein_default(), copt,
          [nap] { return std::make_unique<SlowRealignEngine>(nap); }, &info);
      probe->matched = core::same_tops(reference.tops, res.tops);
      probe->misses = info.heartbeat_misses;
      probe->drops = info.fault_stats.drops;
      probe->messages_by_rank = info.messages_by_rank;
    } catch (const std::exception& e) {
      probe->error = e.what();
    }
    probe->finished = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (!probe->finished.load() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (!probe->finished.load()) {
    runner.detach();  // leak the running search; the probe keeps state alive
    return nullptr;
  }
  runner.join();
  return probe;
}

TEST(SlowSweeps, TaskDeadlineAdaptsToSweepLength) {
  // Every realignment sweep takes 200 ms. A fixed deadline shorter than
  // the sweep requeues every realignment each time it runs (hundreds of
  // lapses here); one that doubles on a lapse and resets to twice the
  // longest sweep lapses a few times and then holds.
  const auto run = run_slow_sweeps(std::chrono::milliseconds(200));
  ASSERT_NE(run, nullptr) << "slow sweeps kept the run from finishing";
  EXPECT_EQ(run->error, "");
  EXPECT_TRUE(run->matched);
  EXPECT_LE(run->misses, 40u);
}

TEST(SlowSweeps, OnlyEachWorkersFirstSlowSweepLapses) {
  // A worker's first 200 ms sweep lapses at its 60 and 180 ms deadlines
  // and is requeued, each time to the same idle worker, which sweeps it
  // again after the first copy. The first result back carries the sweep's
  // own 200 ms, so every later deadline is at least 400 ms, and each
  // stale copy restarts the clock of the task queued behind it. Counting
  // assign-to-result time instead measured the first result from its last
  // requeue (20 ms) and the next task from behind the stale copies, so
  // deadlines kept lapsing all run.
  const auto run = run_slow_sweeps(std::chrono::milliseconds(200));
  ASSERT_NE(run, nullptr) << "slow sweeps kept the run from finishing";
  EXPECT_EQ(run->error, "");
  EXPECT_TRUE(run->matched);
  EXPECT_LE(run->misses, 4u);  // two per worker
}

TEST(SlowSweeps, LateWorkerStartsWithTwiceTheLongestSweep) {
  // Rank 2's first five hellos are dropped (sent at 0, 40, 120, 280 and
  // 600 ms), so it registers at about 1 s. By then rank 1, alone, has run
  // the first sweeps and its first 200 ms realignment, which lapsed twice
  // (60 and 180 ms) before its result came back. Rank 2's first task is a
  // 200 ms realignment armed with twice that longest sweep, 400 ms, so it
  // does not lapse. A deadline armed from rank 2's own timeout (60 ms
  // until one of its own results is applied) would lapse twice more.
  const auto run = run_slow_sweeps(
      std::chrono::milliseconds(200),
      "drop:from=2,to=0,op=0;drop:from=2,to=0,op=1;drop:from=2,to=0,op=2;"
      "drop:from=2,to=0,op=3;drop:from=2,to=0,op=4");
  ASSERT_NE(run, nullptr) << "slow sweeps kept the run from finishing";
  EXPECT_EQ(run->error, "");
  EXPECT_TRUE(run->matched);
  EXPECT_EQ(run->drops, 5u);
  ASSERT_EQ(run->messages_by_rank.size(), 3u);
  EXPECT_GT(run->messages_by_rank[2], 4u) << "rank 2 never swept";
  EXPECT_LE(run->misses, 2u);  // rank 1's first slow sweep only
}

}  // namespace
}  // namespace repro::cluster
