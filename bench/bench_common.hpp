// Shared helpers for the paper-reproduction benches.
#pragma once

#include <iostream>
#include <string>

#include "align/engine.hpp"
#include "obs/report.hpp"
#include "seq/generator.hpp"
#include "seq/scoring.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

namespace repro::bench {

/// Standard help text for the benches' --json flag; every table bench
/// accepts it and writes one BENCH_<name>.json-style perf record.
///
/// JSON parity note (the de-facto bench/README): the table benches
/// (bench_scheduler, bench_table*) emit the repro-metrics-v1 format below
/// via --json <path>. bench_kernels is a google-benchmark binary with one
/// carve-out: `bench_kernels --json <path>` runs the adaptive-precision
/// ablation (u8-vs-i16 rates, same-tops matrix, escalation stats) and
/// writes the same repro-metrics-v1 record as the table benches, while the
/// microbenchmarks' machine-readable output still comes from
/// google-benchmark's native serializer:
///
///   bench_kernels --benchmark_format=json [--benchmark_out=<path>]
///
/// which carries the same per-benchmark counters (cells/s, sweeps/s) as the
/// human-readable console table. tools/bench_smoke.sh consumes both formats
/// and compares bench_scheduler's record against the checked-in
/// BENCH_scheduler.json baseline.
inline constexpr const char* kJsonFlagHelp =
    "write a repro-metrics-v1 JSON perf record to this path";

/// When the bench was invoked with --json <path>, writes `report` there.
/// Returns true when written.
inline bool maybe_write_json(const util::Args& args, obs::MetricsReport& report) {
  const std::string path = args.get("json", "");
  if (path.empty()) return false;
  report.write_file(path);
  std::cout << "wrote perf record to " << path << '\n';
  return true;
}

/// Prints a section header in a uniform style.
inline void header(const std::string& title) {
  std::cout << "\n== " << title << " ==\n";
}

/// Median-of-three timing of a callable returning its wall seconds.
template <typename Fn>
double time_once(Fn&& fn) {
  util::WallTimer timer;
  fn();
  return timer.seconds();
}

template <typename Fn>
double time_best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) best = std::min(best, time_once(fn));
  return best;
}

/// Measures an engine's sustained lane-cells/second on the largest rectangle
/// of a titin-like sequence of length m (used to calibrate the virtual
/// cluster's cost model with *this host's* real kernel throughput).
inline double measure_cells_per_sec(align::Engine& engine, int m,
                                    const seq::Scoring& scoring) {
  const auto g = seq::synthetic_titin(m, 7);
  const int r0 = m / 2;
  const int count = std::min(engine.lanes(), m - 1 - r0 + 1);
  std::vector<std::vector<align::Score>> rows(static_cast<std::size_t>(count));
  std::vector<std::span<align::Score>> outs(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    rows[static_cast<std::size_t>(k)].resize(static_cast<std::size_t>(m - (r0 + k)));
    outs[static_cast<std::size_t>(k)] = rows[static_cast<std::size_t>(k)];
  }
  align::GroupJob job;
  job.seq = g.sequence.codes();
  job.scoring = &scoring;
  job.r0 = r0;
  job.count = count;
  engine.reset_counters();
  const double secs = time_best_of(3, [&] { engine.align(job, outs); });
  const auto cells = static_cast<double>(engine.cells_computed()) / 3.0;
  return cells / std::max(secs, 1e-12) / 1.0;
}

}  // namespace repro::bench
