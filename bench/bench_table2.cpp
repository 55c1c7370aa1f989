// Table 2 reproduction: maximum alignment times — conventional instruction
// set vs coarse-grained SIMD (paper §5.1).
//
// Paper (times for the largest titin rectangle, 17175 x 17175):
//                 conventional   SSE (4 lanes)   SSE2 (8 lanes)
//   Pentium III   5.2 s / 1       3.0 s / 4       —
//   Pentium 4     2.7 s / 1       1.8 s / 4       2.2 s / 8
//   speed improvements: 6.9 (P-III SSE), 6.0 (P4 SSE), 9.8 (P4 SSE2);
//   >1 G cells/s; whole-run SSE speedup 6.8; extra SSE alignments < 0.70 %.
//
// We run the same experiment on this host: the largest rectangle of a
// titin-like protein, one engine per column, plus the whole-run ratio. The
// shape to check: per-matrix speed improvement well above the lane count's
// naive share, i.e. the coarse-grained trick pays beyond vector width.
#include <iostream>

#include "bench_common.hpp"
#include "core/top_alignment_finder.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

struct EngineRow {
  std::string label;
  repro::align::EngineKind kind;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  util::Args args(argc, argv,
                  {{"m", "sequence length (paper: 34350)"},
                   {"paper-scale", "use the paper's sequence length"},
                   {"tops", "top alignments for the whole-run ratio"},
                   {"reps", "timing repetitions"},
                   {"json", bench::kJsonFlagHelp}});
  if (args.help_requested()) return 0;

  int m = static_cast<int>(args.get_int("m", 6000));
  if (args.get_flag("paper-scale")) m = 34350;
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const int tops = static_cast<int>(args.get_int("tops", 10));

  bench::header("Table 2 — maximum alignment times, largest rectangle of a "
                "titin-like protein (m=" + std::to_string(m) + ")");

  const auto g = seq::synthetic_titin(m, 2003);
  const seq::Scoring scoring = seq::Scoring::protein_default();

  const std::vector<EngineRow> rows{
      {"conventional (scalar, 32-bit)", align::EngineKind::kScalar},
      {"scalar + cache striping", align::EngineKind::kScalarStriped},
      {"SIMD 4 x i16 (paper: P-III SSE)", align::EngineKind::kSimd4},
      {"SIMD 8 x i16 (paper: P4 SSE2)", align::EngineKind::kSimd8},
      {"SIMD 16 x i16 (AVX2 successor)", align::EngineKind::kSimd16},
  };

  util::Table table({"engine", "sec / group", "matrices", "per-matrix speedup",
                     "Mcells/s"});
  table.set_precision(3);

  const int r0 = m / 2;
  double scalar_per_matrix = 0.0;
  obs::MetricsReport report("bench_table2");
  report.param("m", m);
  report.param("tops", tops);
  report.param("reps", reps);
  for (const auto& row : rows) {
    const auto engine = align::make_engine(row.kind);
    const int count = engine->lanes();
    std::vector<std::vector<align::Score>> outs_store(static_cast<std::size_t>(count));
    std::vector<std::span<align::Score>> outs(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
      outs_store[static_cast<std::size_t>(k)].resize(
          static_cast<std::size_t>(m - (r0 + k)));
      outs[static_cast<std::size_t>(k)] = outs_store[static_cast<std::size_t>(k)];
    }
    align::GroupJob job;
    job.seq = g.sequence.codes();
    job.scoring = &scoring;
    job.r0 = r0;
    job.count = count;
    const double secs = bench::time_best_of(reps, [&] { engine->align(job, outs); });
    const double per_matrix = secs / count;
    if (row.kind == align::EngineKind::kScalar) scalar_per_matrix = per_matrix;
    const double cells = static_cast<double>(r0 + count - 1) *
                         static_cast<double>(m - r0) * count;
    table.add_row({row.label + " [" + engine->name() + "]", secs,
                   static_cast<long long>(count), scalar_per_matrix / per_matrix,
                   cells / secs / 1e6});
    report.metric(engine->name() + ".cells_per_sec", cells / secs);
    report.metric(engine->name() + ".per_matrix_speedup",
                  scalar_per_matrix / per_matrix);
  }
  table.print(std::cout);
  std::cout << "\npaper reference: SSE 6.9x (P-III) / 6.0x (P4), SSE2 9.8x; "
               ">1000 Mcells/s on the P4.\n";

  // Whole-run ratio (the paper's "total runtime of the SSE version is 6.8
  // times as low"), on a smaller instance so the scalar run stays short.
  const int run_m = std::min(m, 1500);
  const auto small = seq::synthetic_titin(run_m, 7);
  core::FinderOptions opt;
  opt.num_top_alignments = tops;
  const auto scalar_engine = align::make_engine(align::EngineKind::kScalar);
  const auto scalar_run =
      core::find_top_alignments(small.sequence, scoring, opt, *scalar_engine);
  const auto simd_engine = align::make_engine(align::EngineKind::kSimd8);
  const auto simd_run =
      core::find_top_alignments(small.sequence, scoring, opt, *simd_engine);
  const auto aligned = [](const core::FinderStats& st) {
    return st.first_alignments + st.realignments + st.speculative;
  };
  const double extra =
      100.0 * (static_cast<double>(aligned(simd_run.stats)) /
                   static_cast<double>(aligned(scalar_run.stats)) -
               1.0);
  std::cout << "\nwhole-run comparison (m=" << run_m << ", " << tops
            << " tops):\n  scalar " << scalar_run.stats.seconds << " s vs "
            << simd_engine->name() << " " << simd_run.stats.seconds
            << " s  ->  total-runtime speedup "
            << scalar_run.stats.seconds / simd_run.stats.seconds
            << " (paper: 6.8)\n  extra lane-cells computed by SIMD grouping: "
            << extra << " % (paper: < 0.70 % extra alignments)\n";

  report.param("run_m", run_m);
  report.metric("whole_run_speedup",
                scalar_run.stats.seconds / simd_run.stats.seconds);
  report.metric("simd_extra_alignments_pct", extra);
  if (simd_run.stats.seconds > 0.0)
    report.metric("whole_run_cells_per_sec",
                  static_cast<double>(simd_run.stats.cells) /
                      simd_run.stats.seconds);
  report.counter("scalar_run_cells", scalar_run.stats.cells);
  report.counter("simd_run_cells", simd_run.stats.cells);
  report.counter("simd_run_realignments", simd_run.stats.realignments);
  bench::maybe_write_json(args, report);
  return 0;
}
