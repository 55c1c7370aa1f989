// Group-width ablation (paper §4.1/§4.2): how the fixed SIMD group size
// trades kernel throughput against speculative lane work.
//
// The paper argues small fixed groups (4/8 neighbouring matrices) speculate
// cheaply because neighbours have similar scores, while "very large fixed
// groups" waste work on dissimilar members — that is why the MIMD levels
// use dynamic scheduling instead of bigger static groups. This bench sweeps
// the group width on one host: per-width wall time, realignments,
// speculative lane alignments, and the extra-alignment percentage vs the
// scalar (width-1) schedule.
#include <iostream>

#include "bench_common.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  util::Args args(argc, argv,
                  {{"m", "sequence length"},
                   {"tops", "top alignments"},
                   {"json", bench::kJsonFlagHelp}});
  if (args.help_requested()) return 0;
  const int m = static_cast<int>(args.get_int("m", 2000));
  const int tops = static_cast<int>(args.get_int("tops", 20));

  bench::header("Group-width ablation (m=" + std::to_string(m) + ", " +
                std::to_string(tops) + " tops)");
  const auto g = seq::synthetic_titin(m, 2003);
  const seq::Scoring scoring = seq::Scoring::protein_default();

  const std::vector<align::EngineKind> kinds{
      align::EngineKind::kScalar, align::EngineKind::kSimd4,
      align::EngineKind::kSimd8, align::EngineKind::kSimd8x32,
      align::EngineKind::kSimd16};

  core::FinderOptions opt;
  opt.num_top_alignments = tops;

  util::Table table({"group", "seconds", "realigns", "speculative",
                     "extra aligns %", "Mcells/s"});
  table.set_precision(2);
  obs::MetricsReport report("bench_groups");
  report.param("m", m);
  report.param("tops", tops);
  std::uint64_t scalar_aligned = 0;
  std::vector<core::TopAlignment> reference;
  for (const auto kind : kinds) {
    const auto engine = align::make_engine(kind);
    const std::string label = "width " + std::to_string(engine->lanes()) +
                              " (" + engine->name() + ")";
    const auto res = core::find_top_alignments(g.sequence, scoring, opt, *engine);
    if (reference.empty()) {
      reference = res.tops;
    } else {
      std::string diff;
      if (!core::same_tops(reference, res.tops, &diff)) {
        std::cerr << "GROUPING CHANGED RESULTS (" << label << "): "
                  << diff << '\n';
        return 1;
      }
    }
    const std::uint64_t aligned = res.stats.first_alignments +
                                  res.stats.realignments + res.stats.speculative;
    if (kind == align::EngineKind::kScalar) scalar_aligned = aligned;
    const double extra = 100.0 * (static_cast<double>(aligned) /
                                      static_cast<double>(scalar_aligned) -
                                  1.0);
    table.add_row({label, res.stats.seconds,
                   static_cast<long long>(res.stats.realignments),
                   static_cast<long long>(res.stats.speculative),
                   extra,
                   static_cast<double>(res.stats.cells) / res.stats.seconds / 1e6});
    report.metric(engine->name() + ".extra_alignments_pct", extra);
    report.metric(engine->name() + ".cells_per_sec",
                  static_cast<double>(res.stats.cells) / res.stats.seconds);
    report.counter(engine->name() + ".speculative", res.stats.speculative);
  }
  table.print(std::cout);
  std::cout << "\nall widths produced identical top alignments [OK]\n"
            << "paper reference: width-4 SSE speculation cost < 0.70 % extra "
               "alignments on titin (m = 34350); the extra-alignment share "
               "grows as groups widen relative to the per-top realignment "
               "set — the reason the thread/cluster levels schedule "
               "dynamically instead of using larger static groups.\n";
  bench::maybe_write_json(args, report);
  return 0;
}
