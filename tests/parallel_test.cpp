// Shared-memory finder (§4.2): identical results for every thread count,
// determinism across repeats, and every finder option in every driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/master_worker.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "parallel/parallel_finder.hpp"
#include "seq/generator.hpp"

namespace repro::parallel {
namespace {

using core::FinderOptions;
using seq::Scoring;

class ParallelFinderTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFinderTest, MatchesSequentialForAnyThreadCount) {
  const int threads = GetParam();
  const auto g = seq::synthetic_titin(280, 55);
  FinderOptions opt;
  opt.num_top_alignments = 8;

  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference =
      core::find_top_alignments(g.sequence, Scoring::protein_default(), opt, *scalar);

  ParallelOptions popt;
  popt.threads = threads;
  popt.finder = opt;
  const auto res = find_top_alignments_parallel(
      g.sequence, Scoring::protein_default(), popt,
      align::engine_factory(align::EngineKind::kScalar));
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
      << threads << " threads: " << diff;
  core::validate_tops(res.tops, g.sequence, Scoring::protein_default());
}

TEST_P(ParallelFinderTest, SimdEnginesMatchToo) {
  const int threads = GetParam();
  const auto g = seq::synthetic_dna_tandem(200, 15, 8, 66);
  FinderOptions opt;
  opt.num_top_alignments = 6;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::paper_example(), opt, *scalar);

  ParallelOptions popt;
  popt.threads = threads;
  popt.finder = opt;
  const auto res = find_top_alignments_parallel(
      g.sequence, Scoring::paper_example(), popt,
      align::engine_factory(align::EngineKind::kSimd8));
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
      << threads << " threads: " << diff;
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelFinderTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ParallelFinder, DeterministicAcrossRepeats) {
  const auto g = seq::synthetic_titin(240, 77);
  FinderOptions opt;
  opt.num_top_alignments = 6;
  ParallelOptions popt;
  popt.threads = 4;
  popt.finder = opt;
  const auto factory = align::engine_factory(align::EngineKind::kScalar);
  const auto first = find_top_alignments_parallel(
      g.sequence, Scoring::protein_default(), popt, factory);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto res = find_top_alignments_parallel(
        g.sequence, Scoring::protein_default(), popt, factory);
    std::string diff;
    EXPECT_TRUE(core::same_tops(first.tops, res.tops, &diff)) << diff;
  }
}

TEST(ParallelFinder, MinScoreStopsEarly) {
  const auto s = seq::random_sequence(seq::Alphabet::dna(), 100, 5);
  ParallelOptions popt;
  popt.threads = 3;
  popt.finder.num_top_alignments = 500;
  popt.finder.min_score = 12;
  const auto res = find_top_alignments_parallel(
      s, Scoring::paper_example(), popt,
      align::engine_factory(align::EngineKind::kScalar));
  EXPECT_LT(res.tops.size(), 500u);
  for (const auto& top : res.tops) EXPECT_GE(top.score, 12);
}

TEST(ParallelFinder, WorkerEnginePropagatesFailure) {
  // Saturating i16 engines throw; the parallel finder must surface it.
  const auto s = seq::Sequence::from_string(
      "sat", std::string(1400, 'A'), seq::Alphabet::dna());
  ParallelOptions popt;
  popt.threads = 2;
  popt.finder.num_top_alignments = 2;
  const Scoring hot{seq::ScoreMatrix::dna(100, -1), seq::GapPenalty{2, 1}};
  EXPECT_THROW(find_top_alignments_parallel(
                   s, hot, popt,
                   align::engine_factory(align::EngineKind::kSimd8)),
               std::logic_error);
}

TEST(ParallelFinder, StatsAccumulate) {
  const auto g = seq::synthetic_titin(220, 88);
  ParallelOptions popt;
  popt.threads = 4;
  popt.finder.num_top_alignments = 5;
  const auto res = find_top_alignments_parallel(
      g.sequence, Scoring::protein_default(), popt,
      align::engine_factory(align::EngineKind::kScalar));
  EXPECT_EQ(res.stats.first_alignments,
            static_cast<std::uint64_t>(g.sequence.length() - 1));
  EXPECT_EQ(res.stats.tracebacks, res.tops.size());
  EXPECT_GT(res.stats.cells, 0u);
}

// ---------------------------------------------------------------------------
// First-sweep runs (core/search.hpp): at version 0 each worker sweeps
// contiguous runs of groups, so its engine bands, and splits the longest
// untaken stretch when its own run ends.

/// Simulated workers taking first sweeps from one core::Search, one order
/// each at a time.
class FirstSweepSim {
 public:
  /// One order as a worker took it.
  struct Take {
    int worker;
    int gi;
    int prev;       ///< the worker's last group before it
    bool has_next;  ///< group prev + 1 was untaken

    /// A run start that is not group 0: the engine seeds there.
    [[nodiscard]] bool mid_start() const { return gi != 0 && gi != prev + 1; }
  };

  /// `workers` workers on a random sequence of length `m`, split into
  /// groups of 8 (m = 323: 41 groups) or 32 lanes (m = 3000: 94 groups, as
  /// titin-r4's three workers see it); finishing order drawn from `seed`.
  /// `runs`: as for engines that band.
  FirstSweepSim(int workers, int m, int lanes, unsigned seed, bool runs = true)
      : s_(seq::random_sequence(seq::Alphabet::protein(), m, 5)),
        search_(s_, sc_, opt_, lanes, runs),
        rng_(seed),
        workers_(static_cast<std::size_t>(workers)),
        taken_(static_cast<std::size_t>((m - 2) / lanes + 1), false),
        swept_(taken_.size(), 0) {}

  [[nodiscard]] int workers() const { return static_cast<int>(workers_.size()); }
  [[nodiscard]] int groups() const { return static_cast<int>(swept_.size()); }
  [[nodiscard]] const std::vector<Take>& takes() const { return takes_; }
  [[nodiscard]] const std::vector<int>& swept() const { return swept_; }
  /// Times a live worker was left idle while a group was untaken.
  [[nodiscard]] int waits() const { return waits_; }
  [[nodiscard]] int mid_starts() const {
    return static_cast<int>(std::count_if(
        takes_.begin(), takes_.end(), [](const Take& t) { return t.mid_start(); }));
  }
  [[nodiscard]] bool busy(int w) const { return worker(w).order.has_value(); }
  [[nodiscard]] int last(int w) const { return worker(w).last; }

  /// Every idle live worker asks once; then one busy worker, drawn at
  /// random, finishes. Returns false when no worker is busy.
  bool step() {
    const std::vector<int> running = ask();
    if (running.empty()) return false;
    std::uniform_int_distribution<std::size_t> pick(0, running.size() - 1);
    finish(running[pick(rng_)]);
    return true;
  }

  /// Every idle live worker asks once; then every busy worker finishes, as
  /// at equal speeds. Returns false when no worker is busy.
  bool round() {
    const std::vector<int> running = ask();
    for (const int w : running) finish(w);
    return !running.empty();
  }

  void finish(int w) {
    Worker& x = worker(w);
    const std::vector<align::Score> scores(
        static_cast<std::size_t>(x.order->count), 1);
    search_.finish_sweep(*x.order, scores);
    ++swept_[static_cast<std::size_t>(x.order->gi)];
    x.order.reset();
  }

  /// Worker w's order lapses: it goes back unswept, and w stays alive.
  void cancel(int w) {
    Worker& x = worker(w);
    search_.cancel_sweep(*x.order);
    taken_[static_cast<std::size_t>(x.order->gi)] = false;
    x.order.reset();
  }

  /// Idle worker w dies: it takes no more orders.
  void kill(int w) { worker(w).dead = true; }

 private:
  struct Worker {
    int last = -1;
    std::optional<core::SweepOrder> order;
    bool dead = false;
  };

  Worker& worker(int w) { return workers_[static_cast<std::size_t>(w)]; }
  const Worker& worker(int w) const {
    return workers_[static_cast<std::size_t>(w)];
  }

  /// Lets every idle live worker ask; returns the busy workers.
  std::vector<int> ask() {
    std::vector<int> running;
    bool idle = false;
    for (int w = 0; w < workers(); ++w) {
      Worker& x = worker(w);
      if (x.dead) continue;
      if (!x.order) {
        const auto next = static_cast<std::size_t>(x.last + 1);
        const bool has_next =
            x.last >= 0 && next < taken_.size() && !taken_[next];
        x.order = search_.begin_sweep(x.last);
        if (x.order) {
          takes_.push_back({w, x.order->gi, x.last, has_next});
          x.last = x.order->gi;
          taken_[static_cast<std::size_t>(x.last)] = true;
        }
      }
      if (x.order)
        running.push_back(w);
      else
        idle = true;
    }
    if (idle && std::find(taken_.begin(), taken_.end(), false) != taken_.end())
      ++waits_;
    return running;
  }

  seq::Sequence s_;
  Scoring sc_ = Scoring::protein_default();
  FinderOptions opt_;
  core::Search search_;
  std::mt19937 rng_;
  std::vector<Worker> workers_;
  std::vector<bool> taken_;
  std::vector<int> swept_;
  std::vector<Take> takes_;
  int waits_ = 0;
};

/// Every group swept once, nobody waiting while one is untaken, and every
/// worker with a run to continue continuing it.
void expect_runs(const FirstSweepSim& sim, const std::string& what) {
  EXPECT_EQ(sim.swept(), std::vector<int>(static_cast<std::size_t>(sim.groups()), 1))
      << what;
  EXPECT_EQ(sim.waits(), 0) << what;
  for (const auto& t : sim.takes())
    EXPECT_TRUE(!t.has_next || t.gi == t.prev + 1)
        << what << ": worker " << t.worker << " left its run for group " << t.gi;
  EXPECT_EQ(sim.takes().front().gi, 0) << what;
}

TEST(FirstSweepRuns, EveryGroupOnceAndNobodyWaits) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    FirstSweepSim sim(4, 323, 8, seed);
    while (sim.step()) {
    }
    expect_runs(sim, "seed " + std::to_string(seed));
  }
}

TEST(FirstSweepRuns, EqualSpeedsFinishTogetherWithFewSeeds) {
  // At equal speeds the first sweeps take ceil(n / W) rounds: no worker
  // idles at the tail. Each worker seeds once for its first run, and each
  // run that ends early steals half of the longest stretch left.
  for (const auto& [workers, m, lanes] :
       {std::tuple{3, 3000, 32}, std::tuple{4, 3000, 32}, std::tuple{4, 323, 8}}) {
    FirstSweepSim sim(workers, m, lanes, 1);
    int rounds = 0;
    while (sim.round()) ++rounds;
    const std::string what = std::to_string(workers) + " workers, " +
                             std::to_string(sim.groups()) + " groups";
    expect_runs(sim, what);
    EXPECT_EQ(rounds, (sim.groups() + workers - 1) / workers) << what;
    EXPECT_LE(sim.mid_starts(), 3 * workers) << what;
  }
}

TEST(FirstSweepRuns, CancelledOrderIsTakenAgain) {
  int idle_takers = 0;
  for (unsigned seed = 1; seed <= 8; ++seed) {
    FirstSweepSim sim(4, 323, 8, seed);
    for (int k = 0; k < 10; ++k) ASSERT_TRUE(sim.step());
    int lapsed = 1;
    while (!sim.busy(lapsed)) lapsed = (lapsed + 1) % sim.workers();
    const int orphan = sim.last(lapsed);
    sim.cancel(lapsed);
    while (sim.step()) {
    }
    expect_runs(sim, "seed " + std::to_string(seed));
    for (const auto& t : sim.takes())
      if (t.gi == orphan && !t.has_next) ++idle_takers;
  }
  EXPECT_GT(idle_takers, 0) << "no cancelled group went to an idle worker";
}

TEST(FirstSweepRuns, DeadWorkersRunIsTakenOver) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    FirstSweepSim sim(4, 323, 8, seed);
    for (int k = 0; k < 10; ++k) ASSERT_TRUE(sim.step());
    int dead = 2;
    while (!sim.busy(dead)) dead = (dead + 1) % sim.workers();
    sim.finish(dead);
    sim.kill(dead);
    while (sim.step()) {
    }
    expect_runs(sim, "seed " + std::to_string(seed));
  }
}

TEST(FirstSweepRuns, EnginesThatDoNotBandTakeGroupsInOrder) {
  // Without runs every worker takes the lowest untaken group, so the cheap
  // groups at the end of the sequence go last.
  FirstSweepSim sim(4, 323, 8, 1, /*runs=*/false);
  while (sim.step()) {
  }
  EXPECT_EQ(sim.swept(), std::vector<int>(41, 1));
  for (std::size_t k = 0; k < sim.takes().size(); ++k)
    EXPECT_EQ(sim.takes()[k].gi, static_cast<int>(k));
}

/// Records the r0 of every first sweep (a job without overrides) its inner
/// engine makes.
class FirstSweepLog final : public align::Engine {
 public:
  explicit FirstSweepLog(std::shared_ptr<std::vector<std::vector<int>>> runs,
                         std::size_t slot)
      : runs_(std::move(runs)), slot_(slot) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int lanes() const override { return inner_->lanes(); }
  [[nodiscard]] bool supports_checkpoints() const override { return true; }
  [[nodiscard]] align::PrecisionStats precision_stats() const override {
    return inner_->precision_stats();
  }

 protected:
  void do_align(const align::GroupJob& job,
                std::span<const std::span<align::Score>> out) override {
    if (job.overrides == nullptr) (*runs_)[slot_].push_back(job.r0);
    inner_->align(job, out);
  }

 private:
  std::unique_ptr<align::Engine> inner_ =
      align::make_engine(align::EngineKind::kSimdAuto);
  std::shared_ptr<std::vector<std::vector<int>>> runs_;
  std::size_t slot_;
};

TEST(FirstSweepRuns, ThreadWorkersSweepRuns) {
  const auto g = seq::synthetic_titin(600, 2003);
  FinderOptions opt;
  opt.num_top_alignments = 4;
  ParallelOptions popt;
  popt.threads = 4;
  popt.finder = opt;
  // The factory runs on the calling thread, before any worker starts.
  auto runs = std::make_shared<std::vector<std::vector<int>>>();
  const auto res = find_top_alignments_parallel(
      g.sequence, Scoring::protein_default(), popt, [runs] {
        runs->emplace_back();
        return std::make_unique<FirstSweepLog>(runs, runs->size() - 1);
      });
  const int lanes = align::make_engine(align::EngineKind::kSimdAuto)->lanes();
  std::vector<int> swept(
      static_cast<std::size_t>((g.sequence.length() - 2) / lanes + 1), 0);
  int starts = 0;
  for (const std::vector<int>& run : *runs) {
    for (std::size_t k = 0; k < run.size(); ++k)
      if (k == 0 || run[k] != run[k - 1] + lanes) ++starts;
    for (const int r0 : run) ++swept[static_cast<std::size_t>(r0 / lanes)];
  }
  EXPECT_EQ(swept, std::vector<int>(swept.size(), 1));
  // Runs are long: far fewer starts than groups.
  EXPECT_LE(starts, 3 * popt.threads);
  EXPECT_GT(res.stats.precision.cells_reused, 0u);
}

// ---------------------------------------------------------------------------
// Every driver accepts every finder option and finds the sequential tops.

struct Sequential {
  static std::string name() { return "Sequential"; }
  static core::FinderResult run(const seq::Sequence& s, const Scoring& sc,
                                const FinderOptions& opt,
                                const align::EngineFactory& factory) {
    const auto engine = factory();
    return core::find_top_alignments(s, sc, opt, *engine);
  }
};

template <int kThreads>
struct Threads {
  static std::string name() { return "Threads" + std::to_string(kThreads); }
  static core::FinderResult run(const seq::Sequence& s, const Scoring& sc,
                                const FinderOptions& opt,
                                const align::EngineFactory& factory) {
    ParallelOptions popt;
    popt.threads = kThreads;
    popt.finder = opt;
    return find_top_alignments_parallel(s, sc, popt, factory);
  }
};

/// Three ranks; kSeed > 0 injects that seeded fault schedule.
template <int kSeed>
struct Ranks {
  static std::string name() {
    return std::string("Ranks3Replica") + (kSeed > 0 ? "Faulted" : "");
  }
  static core::FinderResult run(const seq::Sequence& s, const Scoring& sc,
                                const FinderOptions& opt,
                                const align::EngineFactory& factory) {
    cluster::ClusterOptions copt;
    copt.ranks = 3;
    copt.finder = opt;
    if (kSeed > 0) copt.fault_plan = cluster::FaultPlan::from_seed(kSeed, 3);
    return cluster::find_top_alignments_cluster(s, sc, copt, factory);
  }
};

template <typename Driver>
class DriverMatrix : public ::testing::Test {};

using Drivers =
    ::testing::Types<Sequential, Threads<2>, Threads<4>, Ranks<0>, Ranks<5>>;
struct DriverName {
  template <typename T>
  static std::string GetName(int) {
    return T::name();
  }
};
TYPED_TEST_SUITE(DriverMatrix, Drivers, DriverName);

TYPED_TEST(DriverMatrix, EveryOptionMatchesSequential) {
  // Conserved tandem protein repeats: blosum62 scores pass the u8 ceiling,
  // so every driver and option also runs the u8 -> i16 precision ladder.
  seq::RepeatSpec spec;
  spec.unit_length = 24;
  spec.copies = 8;
  spec.conservation = 0.95;
  spec.indel_rate = 0.0;
  spec.tandem = true;
  const auto g =
      seq::make_repeat_sequence(seq::Alphabet::protein(), 240, spec, 22);
  const Scoring sc = Scoring::protein_default();
  const auto factory = align::engine_factory(align::EngineKind::kSimdAuto);
  for (const auto memory :
       {core::MemoryMode::kArchiveRows, core::MemoryMode::kRecomputeRows}) {
    for (const std::size_t ckpt :
         {std::size_t{0}, FinderOptions{}.checkpoint_mem, std::size_t{1}}) {
      FinderOptions opt;
      opt.num_top_alignments = 6;
      opt.memory = memory;
      opt.checkpoint_mem = ckpt;
      const auto reference = Sequential::run(g.sequence, sc, opt, factory);
      const auto res = TypeParam::run(g.sequence, sc, opt, factory);
      std::string diff;
      EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
          << "memory " << static_cast<int>(memory) << ", checkpoint_mem "
          << ckpt << ": " << diff;
      EXPECT_EQ(res.tops.size(), 6u);
      EXPECT_GT(reference.stats.precision.escalations, 0u);
      EXPECT_GT(res.stats.precision.escalations, 0u);
    }
  }
}

/// What the engines of one factory computed, added up as each is destroyed.
struct EngineTotals {
  std::mutex mutex;
  std::uint64_t cells = 0;
  align::PrecisionStats precision;
};

/// Forwards to an inner engine and adds the inner engine's own counts to
/// `totals` when destroyed (cluster ranks destroy theirs on their threads).
class TallyEngine final : public align::Engine {
 public:
  TallyEngine(std::unique_ptr<align::Engine> inner,
              std::shared_ptr<EngineTotals> totals)
      : inner_(std::move(inner)), totals_(std::move(totals)) {}
  TallyEngine(const TallyEngine&) = delete;
  TallyEngine& operator=(const TallyEngine&) = delete;
  ~TallyEngine() override {
    const std::lock_guard lock(totals_->mutex);
    totals_->cells += inner_->cells_computed();
    totals_->precision += inner_->precision_stats();
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int lanes() const override { return inner_->lanes(); }
  [[nodiscard]] bool supports_checkpoints() const override {
    return inner_->supports_checkpoints();
  }
  [[nodiscard]] align::PrecisionStats precision_stats() const override {
    return inner_->precision_stats();
  }

 protected:
  void do_align(const align::GroupJob& job,
                std::span<const std::span<align::Score>> out) override {
    inner_->align(job, out);
  }

 private:
  std::unique_ptr<align::Engine> inner_;
  std::shared_ptr<EngineTotals> totals_;
};

TYPED_TEST(DriverMatrix, FirstSweepsBandOnTitin) {
  // Each worker sweeps a run of adjacent first-sweep groups, so the auto
  // engines take the band path under every driver.
  const auto g = seq::synthetic_titin(600, 2003);
  FinderOptions opt;
  opt.num_top_alignments = 5;
  const Scoring sc = Scoring::protein_default();
  const auto factory = align::engine_factory(align::EngineKind::kSimdAuto);
  const auto reference = Sequential::run(g.sequence, sc, opt, factory);
  const auto res = TypeParam::run(g.sequence, sc, opt, factory);
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff)) << diff;
  EXPECT_GT(res.stats.precision.cells_reused, 0u);
}

TYPED_TEST(DriverMatrix, StatsSumTheRunsEngines) {
  const auto g = seq::synthetic_titin(300, 12);
  FinderOptions opt;
  opt.num_top_alignments = 5;
  const auto totals = std::make_shared<EngineTotals>();
  const align::EngineFactory factory = [totals] {
    return std::make_unique<TallyEngine>(
        align::make_engine(align::EngineKind::kSimdAuto), totals);
  };
  const auto res =
      TypeParam::run(g.sequence, Scoring::protein_default(), opt, factory);
  // Every engine of the run is destroyed by the time the driver returns.
  EXPECT_EQ(res.stats.cells, totals->cells);
  EXPECT_EQ(res.stats.precision.i8_sweeps, totals->precision.i8_sweeps);
  EXPECT_EQ(res.stats.precision.i16_sweeps, totals->precision.i16_sweeps);
  EXPECT_EQ(res.stats.precision.escalations, totals->precision.escalations);
  EXPECT_EQ(res.stats.precision.profile_hits, totals->precision.profile_hits);
  EXPECT_GT(res.stats.cells, 0u);
  EXPECT_GT(res.stats.precision.i8_sweeps, 0u);
  EXPECT_GE(res.stats.queue_pops, res.stats.tracebacks);
}

}  // namespace
}  // namespace repro::parallel
