// Memory accounting and the Appendix-A low-memory mode.
//
// The paper: the bottom-row archive of m(m-1)/2 shorts is the largest data
// structure (1.5 GB at m = 40000); the override triangle is a bit triangle
// that "can be compressed if memory usage is an issue"; and on-demand
// recomputation of last rows "would allow an implementation that requires
// only a linear amount of memory", at the cost of extra work. This bench
// reports the measured sizes and the measured cost of the recompute mode.
// Without the archive the override triangle, m(m-1)/2 bits, is the largest
// structure: the checkpointed traceback's scratch for the widest rectangle
// is below it for every m >= 8000, so the traceback does not decide the
// search's memory.
#include <iostream>

#include "align/bottom_row_store.hpp"
#include "align/override_triangle.hpp"
#include "align/sparse_override.hpp"
#include "bench_common.hpp"
#include "align/traceback.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  util::Args args(argc, argv,
                  {{"m", "sequence length for the live run"},
                   {"tops", "top alignments for the live run"},
                   {"json", bench::kJsonFlagHelp}});
  if (args.help_requested()) return 0;
  const int m = static_cast<int>(args.get_int("m", 2000));
  const int tops = static_cast<int>(args.get_int("tops", 15));

  const seq::Scoring protein = seq::Scoring::protein_default();
  // Scratch of traceback_best for the middle rectangle of a length-mm titin.
  const auto traceback_scratch = [&protein](int mm) {
    const auto s = seq::synthetic_titin(mm, 2003).sequence;
    align::GroupJob job;
    job.seq = s.codes();
    job.scoring = &protein;
    job.r0 = mm / 2;
    job.count = 1;
    return align::traceback_plan(job);
  };

  bench::header("Structure sizes vs sequence length");
  util::Table sizes({"m", "bottom rows (MiB)", "override triangle (MiB)",
                     "full matrix, worst rect (MiB)",
                     "traceback scratch, worst rect (MiB)"});
  sizes.set_precision(1);
  for (const long long mm : {2000LL, 8000LL, 34350LL, 40000LL, 100000LL}) {
    const double rows_mib =
        static_cast<double>(mm) * (mm - 1) / 2 * 2 / 1024.0 / 1024.0;
    const double tri_mib =
        static_cast<double>(mm) * (mm - 1) / 2 / 8 / 1024.0 / 1024.0;
    const double matrix_mib =
        static_cast<double>(mm) / 2 * (mm - mm / 2) * 4 / 1024.0 / 1024.0;
    const double scratch_mib =
        static_cast<double>(traceback_scratch(static_cast<int>(mm)).scratch_bytes) /
        1024.0 / 1024.0;
    sizes.add_row({mm, rows_mib, tri_mib, matrix_mib, scratch_mib});
  }
  sizes.print(std::cout);
  std::cout << "paper: \"1.5 GB at 40000\" for the bottom rows — matches the "
               "i16 layout above. The traceback keeps a checkpoint every "
               "~sqrt(2 rows) rows plus one refilled segment instead of the "
               "full matrix; it exists only during an acceptance.\n";

  bench::header("Measured archive for m=" + std::to_string(m));
  {
    align::BottomRowStore rows(m);
    std::cout << "BottomRowStore: " << rows.bytes() / 1024.0 / 1024.0
              << " MiB allocated\n";
  }

  bench::header("Override triangle: dense bits vs compressed pair set");
  {
    // Pairs marked by a real run (the triangle is sparse — paper §3).
    core::FinderOptions opt;
    opt.num_top_alignments = tops;
    const auto engine = align::make_engine(align::EngineKind::kSimdAuto);
    const auto res = core::find_top_alignments(
        seq::synthetic_titin(m, 2003).sequence,
        seq::Scoring::protein_default(), opt, *engine);
    align::SparseOverrideSet sparse(m);
    std::size_t marked = 0;
    for (const auto& top : res.tops) {
      for (const auto& [i, j] : top.pairs) sparse.set(i, j);
      marked += top.pairs.size();
    }
    std::cout << tops << " top alignments mark " << marked << " pairs: dense "
              << align::SparseOverrideSet::dense_bytes(m) / 1024.0
              << " KiB vs sparse " << sparse.bytes() / 1024.0
              << " KiB (density "
              << 200.0 * static_cast<double>(sparse.count()) /
                     (static_cast<double>(m) * (m - 1))
              << " %)\n";
  }

  bench::header("Traceback memory: checkpointed vs full matrix");
  double t_checkpointed = 0.0;
  std::size_t scratch_bytes = 0;
  {
    const auto gg = seq::synthetic_titin(m, 2003);
    align::GroupJob job;
    job.seq = gg.sequence.codes();
    job.scoring = &protein;
    job.r0 = m / 2;
    job.count = 1;
    t_checkpointed =
        bench::time_best_of(3, [&] { (void)align::traceback_best(job); });
    const align::TracebackPlan plan = align::traceback_plan(job);
    scratch_bytes = plan.scratch_bytes;
    const double full_mib =
        static_cast<double>(m / 2) * (m - m / 2) * 4 / 1024.0 / 1024.0;
    std::cout << "largest rectangle (r=" << m / 2 << "): checkpointed "
              << t_checkpointed << " s / " << scratch_bytes / 1024.0 / 1024.0
              << " MiB scratch (a checkpoint every " << plan.stride
              << " rows plus one segment; the full matrix would be "
              << full_mib << " MiB)\n";
    const align::TracebackPlan paper = traceback_scratch(34350);
    std::cout << "paper scale (m=34350, r=17175): checkpointed scratch "
              << paper.scratch_bytes / 1024.0 / 1024.0 << " MiB (stride "
              << paper.stride << ") vs "
              << 17175.0 * 17175.0 * 4 / 1024.0 / 1024.0 / 1024.0
              << " GiB for the full matrix\n";
  }

  bench::header("Low-memory mode (Appendix A): archive vs recompute");
  const auto g = seq::synthetic_titin(m, 2003);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  core::FinderOptions archive;
  archive.num_top_alignments = tops;
  core::FinderOptions recompute = archive;
  recompute.memory = core::MemoryMode::kRecomputeRows;

  const auto e1 = align::make_engine(align::EngineKind::kSimdAuto);
  const auto e2 = align::make_engine(align::EngineKind::kSimdAuto);
  const auto res_archive = core::find_top_alignments(g.sequence, scoring, archive, *e1);
  const auto res_recompute =
      core::find_top_alignments(g.sequence, scoring, recompute, *e2);
  std::string diff;
  if (!core::same_tops(res_archive.tops, res_recompute.tops, &diff)) {
    std::cerr << "MODE DIVERGENCE: " << diff << '\n';
    return 1;
  }

  util::Table table({"mode", "seconds", "lane-cells", "archive bytes"});
  table.set_precision(3);
  table.add_row({std::string("archive rows (paper)"), res_archive.stats.seconds,
                 static_cast<long long>(res_archive.stats.cells),
                 static_cast<long long>(static_cast<long long>(m) * (m - 1) / 2 * 2)});
  table.add_row({std::string("recompute rows (no archive)"),
                 res_recompute.stats.seconds,
                 static_cast<long long>(res_recompute.stats.cells), 0LL});
  table.print(std::cout);
  std::cout << "recompute overhead: "
            << 100.0 * (res_recompute.stats.seconds / res_archive.stats.seconds - 1.0)
            << " % time, "
            << 100.0 * (static_cast<double>(res_recompute.stats.cells) /
                            static_cast<double>(res_archive.stats.cells) -
                        1.0)
            << " % cells — bounded by one extra alignment per realignment, "
               "and best-first keeps realignments rare.\nidentical top "
               "alignments in both modes [OK]\n";

  obs::MetricsReport report("bench_memory");
  report.param("m", m);
  report.param("tops", tops);
  report.metric("recompute_time_overhead_pct",
                100.0 * (res_recompute.stats.seconds /
                             res_archive.stats.seconds -
                         1.0));
  report.metric("recompute_cells_overhead_pct",
                100.0 * (static_cast<double>(res_recompute.stats.cells) /
                             static_cast<double>(res_archive.stats.cells) -
                         1.0));
  report.counter("archive_cells", res_archive.stats.cells);
  report.counter("recompute_cells", res_recompute.stats.cells);
  report.metric("traceback_s", t_checkpointed);
  report.counter("traceback_scratch_bytes", scratch_bytes);
  report.counter("archive_bytes",
                 static_cast<std::uint64_t>(m) * (static_cast<std::uint64_t>(m) - 1));
  bench::maybe_write_json(args, report);
  return 0;
}
