// Cluster-protocol bench: drives the REAL mpisim master/worker finder
// (paper §4.3) across rank counts, fault-free and
// under a seeded fault schedule (drops, delays, duplicates, worker
// crashes). Every run is verified byte-identical to the sequential finder
// — the protocol's determinism guarantee — and the table reports message
// volume plus the recovery counters (retries, reassignments, workers lost)
// that quantify what fault tolerance costs.
//
// This measures protocol overhead and recovery behaviour, not scaling:
// ranks are threads on one host, so wall time grows with rank count. For
// the paper's Fig.-8 scaling shape, see bench_fig8 (virtual time).
#include <iostream>

#include "bench_common.hpp"
#include "cluster/master_worker.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  util::Args args(argc, argv,
                  {{"m", "sequence length"},
                   {"tops", "top alignments"},
                   {"seed", "sequence generator seed"},
                   {"ranks", "comma-separated rank counts incl. master"},
                   {"fault-seed", "seed for the injected fault schedule"},
                   {"fault-plan",
                    "explicit fault schedule (overrides --fault-seed), e.g. "
                    "'drop:from=1,to=0,op=3;crash:rank=2,op=40'"},
                   {"json", bench::kJsonFlagHelp}});
  if (args.help_requested()) return 0;
  const int m = static_cast<int>(args.get_int("m", 600));
  const int tops = static_cast<int>(args.get_int("tops", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2003));
  const auto rank_list = args.get_int_list("ranks", {2, 4, 8});
  const auto fault_seed =
      static_cast<std::uint64_t>(args.get_int("fault-seed", 1));

  bench::header("Cluster protocol (m=" + std::to_string(m) + ", " +
                std::to_string(tops) + " tops; faulted runs verified "
                "identical to sequential)");

  const auto g = seq::synthetic_titin(m, seed);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  core::FinderOptions opt;
  opt.num_top_alignments = tops;

  const auto reference_engine = align::make_engine(align::EngineKind::kScalar);
  const auto reference =
      core::find_top_alignments(g.sequence, scoring, opt, *reference_engine);
  const auto factory = align::engine_factory(align::EngineKind::kScalar);

  util::Table table({"ranks", "faults", "seconds", "messages", "words",
                     "injected", "retries", "reassigns", "lost"});
  table.set_precision(3);

  std::uint64_t messages_sum = 0, words_sum = 0, injected_sum = 0;
  std::uint64_t retries_sum = 0, reassign_sum = 0, lost_sum = 0;
  double clean_seconds_sum = 0.0, faulted_seconds_sum = 0.0;
  int runs = 0;

  for (const auto ranks : rank_list) {
    for (const bool faulted : {false, true}) {
      cluster::ClusterOptions copt;
      copt.ranks = static_cast<int>(ranks);
      copt.finder = opt;
      if (faulted) {
        if (args.has("fault-plan"))
          copt.fault_plan = cluster::FaultPlan::parse(args.get("fault-plan", ""));
        else
          copt.fault_plan = cluster::FaultPlan::from_seed(fault_seed, copt.ranks);
        if (copt.fault_plan.empty()) continue;  // nothing to inject
      }
      cluster::ClusterRunInfo info;
      core::FinderResult res;
      const double secs = bench::time_once([&] {
        res = cluster::find_top_alignments_cluster(g.sequence, scoring, copt,
                                                   factory, &info);
      });
      std::string diff;
      if (!core::same_tops(res.tops, reference.tops, &diff)) {
        std::cerr << "cluster run diverged from sequential (ranks=" << ranks
                  << (faulted ? ", faulted" : "") << "): " << diff << '\n';
        return 1;
      }
      table.add_row({static_cast<long long>(ranks),
                     faulted ? copt.fault_plan.to_string().substr(0, 24) : "-",
                     secs, static_cast<long long>(info.messages),
                     static_cast<long long>(info.payload_words),
                     static_cast<long long>(info.fault_stats.injected()),
                     static_cast<long long>(info.retries),
                     static_cast<long long>(info.reassignments),
                     static_cast<long long>(info.workers_lost)});
      messages_sum += info.messages;
      words_sum += info.payload_words;
      injected_sum += info.fault_stats.injected();
      retries_sum += info.retries;
      reassign_sum += info.reassignments;
      lost_sum += info.workers_lost;
      (faulted ? faulted_seconds_sum : clean_seconds_sum) += secs;
      ++runs;
    }
  }
  table.print(std::cout);
  std::cout << "\nall " << runs << " runs matched the sequential finder's "
            << reference.tops.size() << " top alignments.\n";

  obs::MetricsReport report("bench_cluster");
  report.param("m", m);
  report.param("tops", tops);
  report.param("fault_seed", static_cast<std::int64_t>(fault_seed));
  report.param("runs", runs);
  report.metric("clean_seconds", clean_seconds_sum);
  report.metric("faulted_seconds", faulted_seconds_sum);
  report.counter("messages", messages_sum);
  report.counter("payload_words", words_sum);
  report.counter("faults_injected", injected_sum);
  report.counter("retries", retries_sum);
  report.counter("reassignments", reassign_sum);
  report.counter("workers_lost", lost_sum);
  bench::maybe_write_json(args, report);
  return 0;
}
