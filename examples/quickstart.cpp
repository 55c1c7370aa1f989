// Quickstart: find and display the top alignments and repeats of a small
// sequence — the paper's own running examples.
//
//   $ ./quickstart
//
// Walks through: (1) the Fig.-2 pairwise alignment, (2) the Fig.-4
// nonoverlapping top alignments of ATGCATGCATGC, (3) repeat delineation.
#include <iostream>

#include "align/engine.hpp"
#include "core/delineate.hpp"
#include "core/top_alignment_finder.hpp"
#include "seq/scoring.hpp"
#include "seq/sequence.hpp"

int main() {
  using namespace repro;

  // --- 1. A single local alignment (paper Fig. 2) -------------------------
  // Rectangle view: vertical prefix ATTGCGA vs horizontal suffix CTTACAGA.
  const auto fig2 =
      seq::Sequence::from_string("fig2", "ATTGCGACTTACAGA", seq::Alphabet::dna());
  const seq::Scoring metric = seq::Scoring::paper_example();

  core::FinderOptions one;
  one.num_top_alignments = 1;
  const auto pair_result = core::find_top_alignments(fig2, metric, one);
  std::cout << "Fig. 2 — best local alignment of ATTGCGA vs CTTACAGA "
            << "(match +2, mismatch -1, gap 2+L):\n"
            << core::render(pair_result.tops.at(0), fig2)
            << "score = " << pair_result.tops.at(0).score << " (paper: 6)\n\n";

  // --- 2. Nonoverlapping top alignments (paper Fig. 4) --------------------
  const auto fig4 =
      seq::Sequence::from_string("fig4", "ATGCATGCATGC", seq::Alphabet::dna());
  core::FinderOptions three;
  three.num_top_alignments = 3;
  const auto tops = core::find_top_alignments(fig4, metric, three);
  std::cout << "Fig. 4 — the three top alignments of ATGCATGCATGC:\n";
  for (std::size_t t = 0; t < tops.tops.size(); ++t) {
    std::cout << "top " << t + 1 << ": " << core::summary(tops.tops[t]) << '\n'
              << core::render(tops.tops[t], fig4);
  }

  // --- 3. Repeat delineation (Repro phase 2) ------------------------------
  core::DelineateOptions dopt;  // tiny toy sequence: lower the thresholds
  dopt.min_region = 4;
  dopt.min_support = 3;
  dopt.max_gap = 2;
  const auto regions = core::delineate_repeats(fig4, tops.tops, dopt);
  std::cout << "\nDelineated repeat regions:\n";
  for (const auto& region : regions) {
    std::cout << "  [" << region.begin << ", " << region.end << ") period "
              << region.period << ", ~" << region.copies << " copies, "
              << region.support << " supporting pairs\n";
  }

  const auto engine = align::make_engine(align::EngineKind::kSimdAuto);
  std::cout << "\nEngine used by default: " << engine->name() << " ("
            << engine->lanes() << " lanes)\n";
  return 0;
}
