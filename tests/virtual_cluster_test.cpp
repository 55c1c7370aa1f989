// The discrete-event cluster simulator and its oracle (the Fig. 8 substrate).
#include <gtest/gtest.h>

#include "cluster/oracle.hpp"
#include "cluster/virtual_cluster.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "seq/generator.hpp"

namespace repro::cluster {
namespace {

using core::FinderOptions;
using seq::Scoring;

struct Fixture {
  seq::GeneratedSequence g = seq::synthetic_titin(320, 2003);
  Scoring scoring = Scoring::protein_default();
  std::unique_ptr<align::Engine> engine =
      align::make_engine(align::EngineKind::kScalar);
  AlignmentOracle oracle{g.sequence, scoring, *engine};
};

ClusterModel fast_model(int processors) {
  ClusterModel model;
  model.processors = processors;
  model.worker_cells_per_sec = 1e8;
  model.traceback_cells_per_sec = 1e8;
  return model;
}

TEST(Oracle, AcceptanceSequenceMatchesSequentialFinder) {
  Fixture f;
  FinderOptions opt;
  opt.num_top_alignments = 6;
  const auto eng = align::make_engine(align::EngineKind::kScalar);
  const auto reference =
      core::find_top_alignments(f.g.sequence, f.scoring, opt, *eng);

  // Drive the simulator once; its acceptances populate the oracle.
  simulate_cluster(f.oracle, fast_model(4), opt);
  ASSERT_EQ(f.oracle.accepted().size(), reference.tops.size());
  std::string diff;
  EXPECT_TRUE(core::same_tops(f.oracle.accepted(), reference.tops, &diff)) << diff;
}

TEST(Oracle, ReplayVerifiesAndReusesCache) {
  Fixture f;
  FinderOptions opt;
  opt.num_top_alignments = 5;
  simulate_cluster(f.oracle, fast_model(2), opt);
  const auto computed_first = f.oracle.computed_alignments();
  // A second simulation with a different processor count replays the same
  // acceptance sequence; most alignments come from cache.
  simulate_cluster(f.oracle, fast_model(8), opt);
  const auto computed_second = f.oracle.computed_alignments() - computed_first;
  EXPECT_LT(computed_second, computed_first / 4)
      << "cache should absorb almost all replayed alignments";
}

TEST(Oracle, RejectsOutOfOrderVersionQueries) {
  Fixture f;
  f.oracle.begin_run();
  EXPECT_THROW(f.oracle.member_scores(0, 3), std::logic_error);
}

TEST(VirtualCluster, FindsAllRequestedTops) {
  Fixture f;
  FinderOptions opt;
  opt.num_top_alignments = 6;
  const SimResult res = simulate_cluster(f.oracle, fast_model(16), opt);
  EXPECT_EQ(res.tops_found, 6);
  EXPECT_EQ(res.accept_times.size(), 6u);
  for (std::size_t t = 1; t < res.accept_times.size(); ++t)
    EXPECT_GE(res.accept_times[t], res.accept_times[t - 1]);
  EXPECT_GT(res.makespan_sec, 0.0);
  EXPECT_LE(res.worker_busy_fraction, 1.0 + 1e-9);
}

TEST(VirtualCluster, MoreProcessorsNeverSlowerBeyondMasterSacrifice) {
  // P = 2 is *slower* than P = 1: one CPU is sacrificed as the master and
  // communication is charged (the paper's Fig. 8 starts its near-linear
  // climb from that sacrifice). From P = 2 on, more CPUs never hurt.
  Fixture f;
  FinderOptions opt;
  opt.num_top_alignments = 4;
  const double seq = simulate_cluster(f.oracle, fast_model(1), opt).makespan_sec;
  double prev = simulate_cluster(f.oracle, fast_model(2), opt).makespan_sec;
  EXPECT_GT(prev, seq);  // master sacrifice + comm overhead
  for (int p : {4, 8, 32}) {
    const double t = simulate_cluster(f.oracle, fast_model(p), opt).makespan_sec;
    EXPECT_LE(t, prev * 1.02) << p << " processors";
    prev = t;
  }
  EXPECT_LT(prev, seq);  // large P beats sequential comfortably
}

TEST(VirtualCluster, SpeedupBoundedByWorkerCount) {
  Fixture f;
  FinderOptions opt;
  opt.num_top_alignments = 3;
  const double seq = simulate_cluster(f.oracle, fast_model(1), opt).makespan_sec;
  for (int p : {2, 4, 8}) {
    const double t = simulate_cluster(f.oracle, fast_model(p), opt).makespan_sec;
    EXPECT_LE(seq / t, static_cast<double>(p - 1) + 1e-6) << p << " processors";
  }
}

TEST(VirtualCluster, FirstTopScalesBetterThanManyTops) {
  // The paper's central Fig.-8 shape: near-perfect scaling while the first
  // sweep dominates; lower speedup with many tops (little parallelism
  // between acceptances).
  Fixture f;
  FinderOptions one;
  one.num_top_alignments = 1;
  FinderOptions many;
  many.num_top_alignments = 20;
  const double seq1 = simulate_cluster(f.oracle, fast_model(1), one).makespan_sec;
  const double par1 = simulate_cluster(f.oracle, fast_model(32), one).makespan_sec;
  const double seqN = simulate_cluster(f.oracle, fast_model(1), many).makespan_sec;
  const double parN = simulate_cluster(f.oracle, fast_model(32), many).makespan_sec;
  const double speedup1 = seq1 / par1;
  const double speedupN = seqN / parN;
  EXPECT_GT(speedup1, speedupN);
  EXPECT_GT(speedup1, 10.0);  // 31 workers on ~319 tasks: strong scaling
}

TEST(VirtualCluster, SpeculationScalesWithWorkerToTaskRatio) {
  // §5.2 reports up to 8.4 % extra alignments at 128 CPUs on titin (m =
  // 34350, i.e. workers << rectangles). The extra work per acceptance is
  // bounded by the worker count, so on this deliberately small fixture the
  // overhead fraction is larger — assert the bound, not the paper's ratio.
  Fixture f;
  FinderOptions opt;
  opt.num_top_alignments = 8;
  const SimResult seq = simulate_cluster(f.oracle, fast_model(1), opt);
  for (int p : {8, 64}) {
    const SimResult par = simulate_cluster(f.oracle, fast_model(p), opt);
    EXPECT_GE(par.assignments, seq.assignments);
    // Convergence to each acceptance can take a few realignment rounds, and
    // every round lets all idle workers speculate once.
    const auto bound = seq.assignments +
                       2ull * static_cast<std::uint64_t>(p) *
                           static_cast<std::uint64_t>(opt.num_top_alignments);
    EXPECT_LE(par.assignments, bound) << p << " processors";
  }
}

TEST(VirtualCluster, CommunicationCostsCharged) {
  Fixture f;
  FinderOptions opt;
  opt.num_top_alignments = 5;
  ClusterModel slow_net = fast_model(8);
  slow_net.bandwidth_bytes_per_sec = 1e4;  // pathologically slow network
  ClusterModel fast_net = fast_model(8);
  const double t_slow = simulate_cluster(f.oracle, slow_net, opt).makespan_sec;
  const double t_fast = simulate_cluster(f.oracle, fast_net, opt).makespan_sec;
  EXPECT_GT(t_slow, t_fast * 2.0);
  const SimResult res = simulate_cluster(f.oracle, fast_net, opt);
  EXPECT_GT(res.row_replica_bytes, 0u);
}

TEST(VirtualCluster, DualCpuContentionModel) {
  // §5.2: the non-cache-aware kernel gains only 25 % from the second CPU.
  Fixture f;
  FinderOptions opt;
  opt.num_top_alignments = 2;
  ClusterModel aware = fast_model(9);
  ClusterModel unaware = fast_model(9);
  unaware.second_cpu_efficiency = 0.625;
  const double t_aware = simulate_cluster(f.oracle, aware, opt).makespan_sec;
  const double t_unaware = simulate_cluster(f.oracle, unaware, opt).makespan_sec;
  EXPECT_GT(t_unaware, t_aware * 1.3);
}

}  // namespace
}  // namespace repro::cluster
