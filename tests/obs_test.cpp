// Observability: the perf-record JSON schema, and the run record a finder
// returns agreeing with the engine that did the work.
#include <gtest/gtest.h>

#include <string>

#include "align/engine.hpp"
#include "core/top_alignment_finder.hpp"
#include "obs/report.hpp"
#include "seq/generator.hpp"

namespace repro::obs {
namespace {

TEST(MetricsReportTest, SchemaShape) {
  MetricsReport report("unit_test");
  report.param("engine", "scalar");
  report.param("m", 1200);
  report.param("fast", true);
  report.metric("cells_per_sec", 1.5e9);
  report.counter("cells", 42);
  const std::string doc = report.to_json();
  EXPECT_NE(doc.find("\"schema\":\"repro-metrics-v1\""), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"name\":\"unit_test\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"engine\":\"scalar\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"m\":1200"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"fast\":true"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"cells\":42"), std::string::npos) << doc;
  // A record holds params, metrics and counters of one run, nothing else.
  EXPECT_EQ(doc.find("\"registry\""), std::string::npos) << doc;
}

// End-to-end: a sequential finder run's stats count exactly the cells its
// engine computed during the run.
TEST(Integration, FinderStatsCellsMatchTheEngine) {
  const auto g = seq::synthetic_titin(200, 11);
  core::FinderOptions opt;
  opt.num_top_alignments = 5;
  const auto engine = align::make_engine(align::EngineKind::kScalar);
  const std::uint64_t cells0 = engine->cells_computed();
  const auto res = core::find_top_alignments(
      g.sequence, seq::Scoring::protein_default(), opt, *engine);
  ASSERT_FALSE(res.tops.empty());

  EXPECT_GT(res.stats.cells, 0u);
  EXPECT_EQ(res.stats.cells, engine->cells_computed() - cells0);
  EXPECT_GT(res.stats.first_alignments, 0u);
  EXPECT_EQ(res.stats.tracebacks, res.tops.size());
}

}  // namespace
}  // namespace repro::obs
