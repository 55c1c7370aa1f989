// Scan a large titin-like protein for internal repeats — the paper's
// headline workload (§1: "processing the longest known proteins").
//
//   $ ./titin_scan [--length 3000] [--tops 25] [--engine auto|simd8|scalar]
//   $ ./titin_scan --fasta my_protein.fa    # scan a real protein instead
//
// Prints the top alignments, the delineated repeat regions, and finder
// statistics (realignments avoided, cells/s) for the chosen engine.
#include <iostream>

#include "align/engine.hpp"
#include "core/delineate.hpp"
#include "core/top_alignment_finder.hpp"
#include "seq/fasta.hpp"
#include "seq/generator.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  util::Args args(argc, argv,
                  {{"length", "synthetic titin length (default 3000)"},
                   {"tops", "top alignments to compute (paper: 10-30+)"},
                   {"seed", "generator seed"},
                   {"engine",
                    "auto (default) | scalar | striped | simd4 | simd8 | "
                    "simd16 | simd8x32"},
                   {"fasta", "scan the first record of this FASTA file instead"},
                   {"show", "how many alignments to render"}});
  if (args.help_requested()) return 0;

  const int length = static_cast<int>(args.get_int("length", 3000));
  const int tops = static_cast<int>(args.get_int("tops", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2003));
  const int show = static_cast<int>(args.get_int("show", 3));

  // make_engine runs each kind on the widest ISA this CPU supports.
  const std::string name = args.get("engine", "auto");
  align::EngineKind kind = align::EngineKind::kSimdAuto;
  if (name == "scalar") kind = align::EngineKind::kScalar;
  else if (name == "striped") kind = align::EngineKind::kScalarStriped;
  else if (name == "simd4") kind = align::EngineKind::kSimd4;
  else if (name == "simd8") kind = align::EngineKind::kSimd8;
  else if (name == "simd16") kind = align::EngineKind::kSimd16;
  else if (name == "simd8x32") kind = align::EngineKind::kSimd8x32;
  const auto engine = align::make_engine(kind);

  seq::Sequence protein("empty", {}, seq::Alphabet::protein());
  if (args.has("fasta")) {
    auto records = seq::read_fasta_file(args.get("fasta", ""), seq::Alphabet::protein());
    if (records.empty()) {
      std::cerr << "no records in " << args.get("fasta", "") << '\n';
      return 1;
    }
    protein = std::move(records.front());
  } else {
    protein = seq::synthetic_titin(length, seed).sequence;
  }
  std::cout << "scanning " << protein.name() << " (" << protein.length()
            << " aa) with engine " << engine->name() << " ("
            << engine->lanes() << " lanes)\n";

  core::FinderOptions opt;
  opt.num_top_alignments = tops;
  const auto res = core::find_top_alignments(
      protein, seq::Scoring::protein_default(), opt, *engine);

  std::cout << "\nfound " << res.tops.size() << " top alignments in "
            << res.stats.seconds << " s ("
            << static_cast<double>(res.stats.cells) / res.stats.seconds / 1e6
            << " Mcells/s)\n";
  std::cout << "realignments: " << res.stats.realignments << " of "
            << res.stats.first_alignments << " rectangles x " << res.tops.size()
            << " tops (best-first ordering, paper: 90-97 % avoided)\n\n";

  util::Table table({"top", "split r", "score", "prefix range", "suffix range",
                     "pairs"});
  for (std::size_t t = 0; t < res.tops.size(); ++t) {
    const auto& top = res.tops[t];
    table.add_row({static_cast<long long>(t + 1), static_cast<long long>(top.r),
                   static_cast<long long>(top.score),
                   std::to_string(top.prefix_begin()) + ".." + std::to_string(top.prefix_end()),
                   std::to_string(top.suffix_begin()) + ".." + std::to_string(top.suffix_end()),
                   static_cast<long long>(top.pairs.size())});
  }
  table.print(std::cout);

  for (int t = 0; t < std::min<int>(show, static_cast<int>(res.tops.size())); ++t) {
    std::cout << "\ntop " << t + 1 << ":\n"
              << core::render(res.tops[static_cast<std::size_t>(t)], protein);
  }

  const auto regions = core::delineate_repeats(protein, res.tops);
  std::cout << "\ndelineated repeat regions:\n";
  for (const auto& region : regions) {
    std::cout << "  [" << region.begin << ", " << region.end << ")  period ~"
              << region.period << "  ~" << region.copies << " copies  ("
              << region.support << " pairs)\n";
  }
  if (regions.empty()) std::cout << "  (none above thresholds)\n";
  return 0;
}
