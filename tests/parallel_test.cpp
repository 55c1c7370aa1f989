// Shared-memory finder (§4.2): identical results for every thread count,
// determinism across repeats, and every finder option in every driver.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
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
template <cluster::RowStorage kStorage, int kSeed>
struct Ranks {
  static std::string name() {
    return std::string("Ranks3") +
           (kStorage == cluster::RowStorage::kPartitioned ? "Partitioned"
                                                           : "Replica") +
           (kSeed > 0 ? "Faulted" : "");
  }
  static core::FinderResult run(const seq::Sequence& s, const Scoring& sc,
                                const FinderOptions& opt,
                                const align::EngineFactory& factory) {
    cluster::ClusterOptions copt;
    copt.ranks = 3;
    copt.row_storage = kStorage;
    copt.finder = opt;
    if (kSeed > 0) copt.fault_plan = cluster::FaultPlan::from_seed(kSeed, 3);
    return cluster::find_top_alignments_cluster(s, sc, copt, factory);
  }
};

template <typename Driver>
class DriverMatrix : public ::testing::Test {};

using Drivers =
    ::testing::Types<Sequential, Threads<2>, Threads<4>,
                     Ranks<cluster::RowStorage::kMasterReplica, 0>,
                     Ranks<cluster::RowStorage::kPartitioned, 0>,
                     Ranks<cluster::RowStorage::kMasterReplica, 5>>;
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
