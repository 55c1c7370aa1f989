// Message substrate and the distributed master/worker finder (§4.3).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "cluster/master_worker.hpp"
#include "cluster/mpisim.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "seq/generator.hpp"

namespace repro::cluster {
namespace {

using core::FinderOptions;
using seq::Scoring;
using std::chrono::milliseconds;

TEST(Comm, PointToPointFifo) {
  Comm comm(2);
  for (int k = 0; k < 5; ++k) comm.send(0, 1, {k, {k * 10}});
  for (int k = 0; k < 5; ++k) {
    const auto got = comm.recv_any_for(1, milliseconds(0));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->first, 0);
    EXPECT_EQ(got->second.tag, k);
    EXPECT_EQ(got->second.data.at(0), k * 10);
  }
}

TEST(Comm, RecvAnyAndProbe) {
  // A zero timeout is a nonblocking probe that consumes what it finds.
  Comm comm(2);
  EXPECT_FALSE(comm.recv_any_for(1, milliseconds(0)).has_value());
  comm.send(0, 1, {3, {1, 2}});
  const auto got = comm.recv_any_for(1, milliseconds(0));
  ASSERT_TRUE(got.has_value());
  const auto& [src, msg] = *got;
  EXPECT_EQ(src, 0);
  EXPECT_EQ(msg.tag, 3);
  EXPECT_EQ(comm.messages_sent(), 1u);
  EXPECT_EQ(comm.words_sent(), 3u);
}

TEST(Comm, BlockingRecvWakesOnSend) {
  Comm comm(2);
  std::atomic<bool> got{false};
  run_ranks(comm, [&](int rank) {
    if (rank == 0) {
      comm.send(0, 1, {9, {}});
    } else {
      const auto msg = comm.recv_any_for(1, std::chrono::seconds(60));
      got = msg.has_value() && msg->second.tag == 9;
    }
  });
  EXPECT_TRUE(got.load());
}

TEST(Comm, BroadcastReachesEveryOtherRank) {
  Comm comm(4);
  comm.broadcast(1, {5, {42}});
  for (int rank : {0, 2, 3}) {
    const auto got = comm.recv_any_for(rank, milliseconds(0));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->first, 1);
    EXPECT_EQ(got->second.tag, 5);
    EXPECT_EQ(got->second.data.at(0), 42);
  }
  // The sender gets nothing.
  EXPECT_FALSE(comm.recv_any_for(1, milliseconds(0)).has_value());
}

TEST(Comm, RunRanksPropagatesExceptions) {
  Comm comm(2);
  EXPECT_THROW(run_ranks(comm,
                         [&](int rank) {
                           if (rank == 1) throw std::runtime_error("rank died");
                           // rank 0 exits immediately
                         }),
               std::runtime_error);
}

class ClusterFinderTest : public ::testing::TestWithParam<int> {};

TEST_P(ClusterFinderTest, MatchesSequentialForAnyRankCount) {
  const int ranks = GetParam();
  const auto g = seq::synthetic_titin(260, 91);
  FinderOptions opt;
  opt.num_top_alignments = 7;

  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::protein_default(), opt, *scalar);

  ClusterOptions copt;
  copt.ranks = ranks;
  copt.finder = opt;
  ClusterRunInfo info;
  const auto res = find_top_alignments_cluster(
      g.sequence, Scoring::protein_default(), copt,
      align::engine_factory(align::EngineKind::kScalar), &info);
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
      << ranks << " ranks: " << diff;
  core::validate_tops(res.tops, g.sequence, Scoring::protein_default());
  if (ranks > 1) {
    EXPECT_GT(info.messages, 0u);
  }
}

TEST_P(ClusterFinderTest, SimdWorkersMatchToo) {
  const int ranks = GetParam();
  const auto g = seq::synthetic_dna_tandem(180, 14, 7, 17);
  FinderOptions opt;
  opt.num_top_alignments = 5;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::paper_example(), opt, *scalar);

  ClusterOptions copt;
  copt.ranks = ranks;
  copt.finder = opt;
  const auto res = find_top_alignments_cluster(
      g.sequence, Scoring::paper_example(), copt,
      align::engine_factory(align::EngineKind::kSimd8));
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
      << ranks << " ranks: " << diff;
}

INSTANTIATE_TEST_SUITE_P(Ranks, ClusterFinderTest, ::testing::Values(1, 2, 3, 5, 8));

TEST(ClusterFinder, RowReplicasFlowWhenWorkersShareWork) {
  // With several workers, realignments frequently land on a worker that did
  // not compute the rectangle's first alignment, forcing replica fetches.
  const auto g = seq::synthetic_titin(300, 92);
  ClusterOptions copt;
  copt.ranks = 5;
  copt.finder.num_top_alignments = 8;
  ClusterRunInfo info;
  const auto res = find_top_alignments_cluster(
      g.sequence, Scoring::protein_default(), copt,
      align::engine_factory(align::EngineKind::kScalar), &info);
  EXPECT_EQ(res.tops.size(), 8u);
  EXPECT_GT(info.row_replicas_served, 0u);
  EXPECT_GT(info.payload_words, 0u);
}

TEST(ClusterFinder, DeterministicAcrossRepeats) {
  const auto g = seq::synthetic_dna_tandem(160, 10, 8, 44);
  ClusterOptions copt;
  copt.ranks = 4;
  copt.finder.num_top_alignments = 6;
  const auto factory = align::engine_factory(align::EngineKind::kScalar);
  const auto first = find_top_alignments_cluster(g.sequence,
                                                 Scoring::paper_example(),
                                                 copt, factory);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto res = find_top_alignments_cluster(
        g.sequence, Scoring::paper_example(), copt, factory);
    std::string diff;
    EXPECT_TRUE(core::same_tops(first.tops, res.tops, &diff)) << diff;
  }
}

class PartitionedClusterTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionedClusterTest, PartitionedRowsMatchSequential) {
  // §4.3's alternative storage scheme: rows partitioned over worker ranks,
  // owners service peer requests. Results must stay identical.
  const int ranks = GetParam();
  const auto g = seq::synthetic_titin(240, 93);
  FinderOptions opt;
  opt.num_top_alignments = 7;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::protein_default(), opt, *scalar);

  ClusterOptions copt;
  copt.ranks = ranks;
  copt.row_storage = RowStorage::kPartitioned;
  copt.finder = opt;
  ClusterRunInfo info;
  const auto res = find_top_alignments_cluster(
      g.sequence, Scoring::protein_default(), copt,
      align::engine_factory(align::EngineKind::kScalar), &info);
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
      << ranks << " ranks: " << diff;
  if (ranks > 2) {
    // With several workers, deposits must have crossed rank boundaries.
    EXPECT_GT(info.row_deposits, 0u);
    EXPECT_EQ(info.row_replicas_served, 0u);  // master serves nothing
  }
}

TEST_P(PartitionedClusterTest, PartitionedWithSimdWorkers) {
  const int ranks = GetParam();
  const auto g = seq::synthetic_dna_tandem(160, 12, 7, 55);
  FinderOptions opt;
  opt.num_top_alignments = 5;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::paper_example(), opt, *scalar);
  ClusterOptions copt;
  copt.ranks = ranks;
  copt.row_storage = RowStorage::kPartitioned;
  copt.finder = opt;
  const auto res = find_top_alignments_cluster(
      g.sequence, Scoring::paper_example(), copt,
      align::engine_factory(align::EngineKind::kSimd8));
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
      << ranks << " ranks: " << diff;
}

INSTANTIATE_TEST_SUITE_P(Ranks, PartitionedClusterTest,
                         ::testing::Values(2, 3, 5, 8));

TEST(ClusterFinder, PartitionedDeterministicAcrossRepeats) {
  const auto g = seq::synthetic_titin(220, 94);
  ClusterOptions copt;
  copt.ranks = 5;
  copt.row_storage = RowStorage::kPartitioned;
  copt.finder.num_top_alignments = 6;
  const auto factory = align::engine_factory(align::EngineKind::kScalar);
  const auto first = find_top_alignments_cluster(
      g.sequence, Scoring::protein_default(), copt, factory);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto res = find_top_alignments_cluster(
        g.sequence, Scoring::protein_default(), copt, factory);
    std::string diff;
    EXPECT_TRUE(core::same_tops(first.tops, res.tops, &diff)) << diff;
  }
}

TEST(ClusterFinder, MinScoreStopsEarly) {
  const auto s = seq::random_sequence(seq::Alphabet::dna(), 90, 6);
  ClusterOptions copt;
  copt.ranks = 3;
  copt.finder.num_top_alignments = 400;
  copt.finder.min_score = 12;
  const auto res = find_top_alignments_cluster(
      s, Scoring::paper_example(), copt,
      align::engine_factory(align::EngineKind::kScalar));
  EXPECT_LT(res.tops.size(), 400u);
  for (const auto& top : res.tops) EXPECT_GE(top.score, 12);
}

}  // namespace
}  // namespace repro::cluster
