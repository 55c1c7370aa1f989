// Scheduler-quality ablations (paper §3 and §5.1/§5.2):
//   * best-first upper-bound ordering skips 90-97 % of realignments
//     relative to realigning every rectangle per top alignment;
//   * between consecutive top alignments only 3-10 % of rectangles need a
//     realignment with the new override triangle;
//   * SIMD group scheduling computes < 0.70 % extra alignments;
//   * checkpoint-resume realignment (the incremental-realignment subsystem)
//     skips the clean DP-row prefix of every realignment sweep — compared
//     against a cache-disabled run over the identical schedule;
//   * the auto engine's band sweep takes most first-sweep lane cells from
//     the adjacent group's last rectangle (counter cells_reused).
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
                   {"seeds", "comma-separated generator seeds"},
                   {"json", bench::kJsonFlagHelp}});
  if (args.help_requested()) return 0;
  const int m = static_cast<int>(args.get_int("m", 1200));
  const int tops = static_cast<int>(args.get_int("tops", 25));
  const auto seeds = args.get_int_list("seeds", {1, 2, 3});

  bench::header("Scheduler ablations (m=" + std::to_string(m) + ", " +
                std::to_string(tops) + " tops)");

  const seq::Scoring scoring = seq::Scoring::protein_default();
  util::Table table({"seed", "sweep realigns", "best-first realigns",
                     "avoided %", "realigns/top %", "SIMD extra aligns %"});
  table.set_precision(2);

  util::Table ckpt_table({"seed", "realign s (off)", "realign s (on)",
                          "speedup", "rows skipped %", "hit rate %"});
  ckpt_table.set_precision(2);

  double avoided_sum = 0.0, per_top_sum = 0.0, extra_sum = 0.0;
  std::uint64_t sweep_realigns_sum = 0, best_realigns_sum = 0;
  std::uint64_t cells_sum = 0, cells_reused_sum = 0;
  double seconds_sum = 0.0;
  double ckpt_speedup_sum = 0.0, realign_on_sum = 0.0, realign_off_sum = 0.0;
  std::uint64_t rows_skipped_sum = 0, rows_swept_sum = 0;
  std::uint64_t ckpt_hits_sum = 0, ckpt_misses_sum = 0, ckpt_evictions_sum = 0;

  // Checkpoint-ablation workload: a random background half followed by a
  // dense tandem repeat array (domain repeats concentrated in the distal
  // half, as in mucins or the titin PEVK region). Every accepted alignment
  // then lives in the second half, so the clean DP-row prefix of a
  // realignment sweep — everything above the first overridden pair — covers
  // at least m/2 rows. Full-length repeat arrays (plain synthetic_titin)
  // bound the skip depth by the accepted alignments' smallest prefix
  // position, which is near zero, hiding the resume path this table
  // measures.
  const auto distal_repeats = [&](std::uint64_t seed) {
    auto bg = seq::random_sequence(seq::Alphabet::protein(), m / 2, 7000 + seed);
    seq::RepeatSpec spec;
    spec.unit_length = 40;
    spec.copies = 12;
    spec.conservation = 0.8;
    spec.indel_rate = 0.02;
    spec.tandem = true;
    auto rep = seq::make_repeat_sequence(seq::Alphabet::protein(), m - m / 2,
                                         spec, seed);
    std::vector<std::uint8_t> codes(bg.codes().begin(), bg.codes().end());
    codes.insert(codes.end(), rep.sequence.codes().begin(),
                 rep.sequence.codes().end());
    return seq::Sequence("distal_repeats", std::move(codes),
                         seq::Alphabet::protein());
  };

  for (const auto seed : seeds) {
    const auto g = seq::synthetic_titin(m, static_cast<std::uint64_t>(seed));

    core::FinderOptions best;
    best.num_top_alignments = tops;
    core::FinderOptions sweep = best;
    sweep.policy = core::RescanPolicy::kExhaustiveSweep;

    const auto e_best = align::make_engine(align::EngineKind::kScalar);
    const auto e_sweep = align::make_engine(align::EngineKind::kScalar);
    const auto r_best = core::find_top_alignments(g.sequence, scoring, best, *e_best);
    const auto r_sweep =
        core::find_top_alignments(g.sequence, scoring, sweep, *e_sweep);
    std::string diff;
    if (!core::same_tops(r_best.tops, r_sweep.tops, &diff)) {
      std::cerr << "policy results diverge: " << diff << '\n';
      return 1;
    }

    const double avoided =
        100.0 * (1.0 - static_cast<double>(r_best.stats.realignments) /
                           static_cast<double>(r_sweep.stats.realignments));
    // Fraction of rectangles realigned per accepted top alignment.
    const double per_top =
        100.0 * static_cast<double>(r_best.stats.realignments) /
        static_cast<double>(r_best.tops.size()) / static_cast<double>(m - 1);

    // SIMD grouping overhead: total rectangle alignments vs scalar. Groups
    // of 4 to match the paper's P-III SSE configuration.
    const auto e_simd = align::make_engine(align::EngineKind::kSimd4);
    const auto r_simd = core::find_top_alignments(g.sequence, scoring, best, *e_simd);
    const auto aligned = [](const core::FinderStats& st) {
      return st.first_alignments + st.realignments + st.speculative;
    };
    const double extra =
        100.0 * (static_cast<double>(aligned(r_simd.stats)) /
                     static_cast<double>(aligned(r_best.stats)) -
                 1.0);

    // Band sweep: the auto engine's ascending first-sweep groups.
    const auto e_auto = align::make_engine(align::EngineKind::kSimdAuto);
    const auto r_auto =
        core::find_top_alignments(g.sequence, scoring, best, *e_auto);
    if (!core::same_tops(r_best.tops, r_auto.tops, &diff)) {
      std::cerr << "auto engine results diverge: " << diff << '\n';
      return 1;
    }
    cells_reused_sum += r_auto.stats.precision.cells_reused;

    // Checkpoint ablation: identical schedule on the distal-repeat
    // workload, default 256 MiB budget vs cache disabled (the off run
    // recomputes every DP row of every realignment sweep).
    const auto distal = distal_repeats(static_cast<std::uint64_t>(seed));
    core::FinderOptions off = best;
    off.checkpoint_mem = 0;
    const auto e_on = align::make_engine(align::EngineKind::kScalar);
    const auto e_off = align::make_engine(align::EngineKind::kScalar);
    const auto r_on = core::find_top_alignments(distal, scoring, best, *e_on);
    const auto r_off = core::find_top_alignments(distal, scoring, off, *e_off);
    if (!core::same_tops(r_on.tops, r_off.tops, &diff)) {
      std::cerr << "checkpoint results diverge: " << diff << '\n';
      return 1;
    }
    const double ckpt_speedup =
        r_on.stats.realign_seconds > 0.0
            ? r_off.stats.realign_seconds / r_on.stats.realign_seconds
            : 1.0;
    const double skipped_pct =
        r_on.stats.rows_swept > 0
            ? 100.0 * static_cast<double>(r_on.stats.rows_skipped) /
                  static_cast<double>(r_on.stats.rows_swept)
            : 0.0;
    const std::uint64_t lookups = r_on.stats.ckpt_hits + r_on.stats.ckpt_misses;
    const double hit_rate =
        lookups > 0 ? 100.0 * static_cast<double>(r_on.stats.ckpt_hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    ckpt_table.add_row({static_cast<long long>(seed),
                        r_off.stats.realign_seconds,
                        r_on.stats.realign_seconds, ckpt_speedup,
                        skipped_pct, hit_rate});
    ckpt_speedup_sum += ckpt_speedup;
    realign_on_sum += r_on.stats.realign_seconds;
    realign_off_sum += r_off.stats.realign_seconds;
    rows_skipped_sum += r_on.stats.rows_skipped;
    rows_swept_sum += r_on.stats.rows_swept;
    ckpt_hits_sum += r_on.stats.ckpt_hits;
    ckpt_misses_sum += r_on.stats.ckpt_misses;
    ckpt_evictions_sum += r_on.stats.ckpt_evictions;

    table.add_row({static_cast<long long>(seed),
                   static_cast<long long>(r_sweep.stats.realignments),
                   static_cast<long long>(r_best.stats.realignments), avoided,
                   per_top, extra});
    avoided_sum += avoided;
    per_top_sum += per_top;
    extra_sum += extra;
    sweep_realigns_sum += r_sweep.stats.realignments;
    best_realigns_sum += r_best.stats.realignments;
    cells_sum += r_best.stats.cells;
    seconds_sum += r_best.stats.seconds;
  }
  table.print(std::cout);
  std::cout << "\npaper reference: 90-97 % of realignments avoided; 3-10 % of "
               "matrices realigned per top alignment; SSE grouping computed "
               "< 0.70 % extra alignments.\n";

  std::cout << "\nCheckpoint-resume realignment on the distal-repeat workload "
               "(random background + dense tandem array; default 256 MiB "
               "budget vs disabled, identical schedule):\n";
  ckpt_table.print(std::cout);
  std::cout << "\nBand sweep (auto engine, titin inputs): " << cells_reused_sum
            << " first-sweep lane cells taken from the adjacent group's last "
               "rectangle.\n";

  const double nseeds = static_cast<double>(seeds.size());
  obs::MetricsReport report("bench_scheduler");
  report.param("m", m);
  report.param("tops", tops);
  report.param("seeds", static_cast<std::int64_t>(seeds.size()));
  report.metric("realignments_avoided_pct", avoided_sum / nseeds);
  report.metric("realignments_per_top_pct", per_top_sum / nseeds);
  report.metric("simd_extra_alignments_pct", extra_sum / nseeds);
  if (seconds_sum > 0.0)
    report.metric("cells_per_sec",
                  static_cast<double>(cells_sum) / seconds_sum);
  report.metric("ckpt_realign_speedup", ckpt_speedup_sum / nseeds);
  report.metric("ckpt_rows_skipped_pct",
                rows_swept_sum > 0
                    ? 100.0 * static_cast<double>(rows_skipped_sum) /
                          static_cast<double>(rows_swept_sum)
                    : 0.0);
  report.metric("ckpt_hit_rate_pct",
                ckpt_hits_sum + ckpt_misses_sum > 0
                    ? 100.0 * static_cast<double>(ckpt_hits_sum) /
                          static_cast<double>(ckpt_hits_sum + ckpt_misses_sum)
                    : 0.0);
  report.metric("ckpt_realign_seconds_on", realign_on_sum);
  report.metric("ckpt_realign_seconds_off", realign_off_sum);
  report.counter("ckpt_hits", ckpt_hits_sum);
  report.counter("ckpt_misses", ckpt_misses_sum);
  report.counter("ckpt_evictions", ckpt_evictions_sum);
  report.counter("ckpt_rows_skipped", rows_skipped_sum);
  report.counter("ckpt_rows_swept", rows_swept_sum);
  report.counter("sweep_realignments", sweep_realigns_sum);
  report.counter("best_first_realignments", best_realigns_sum);
  report.counter("cells", cells_sum);
  report.counter("cells_reused", cells_reused_sum);
  bench::maybe_write_json(args, report);
  return 0;
}
