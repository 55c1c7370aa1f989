// Kernel microbenchmarks (google-benchmark): sustained cell rates of every
// alignment engine, override-triangle probes, queue operations, and the
// full-matrix traceback. These are the primitives behind every table in the
// paper; bench_table*.cpp report the paper-shaped numbers.
//
// With --json <path> the binary instead runs the adaptive-precision
// ablation (u8 vs i16 cell rates per ISA, the u8 side measured on the
// ISA's adaptive engine where no sweep escalates; a same-tops matrix over
// every engine; and the escalation behavior on a saturating workload) and
// writes a repro-metrics-v1 record.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "align/checkpoint_cache.hpp"
#include "align/engine.hpp"
#include "align/engine_detail.hpp"
#include "align/override_triangle.hpp"
#include "align/traceback.hpp"
#include "bench_common.hpp"
#include "core/task_queue.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "seq/generator.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace repro;

const seq::Scoring& scoring() {
  static const seq::Scoring s = seq::Scoring::protein_default();
  return s;
}

const seq::Sequence& titin(int m) {
  static std::map<int, seq::Sequence> cache;
  auto it = cache.find(m);
  if (it == cache.end())
    it = cache.emplace(m, seq::synthetic_titin(m, 2003).sequence).first;
  return it->second;
}

// u8 microbench workload: random protein under blosum62 (gap open 10) has
// negative score drift, so actual split peaks stay ~O(log m) — around 60 at
// m = 6000, far inside the biased u8 ceiling of 240 — at any benchable
// length. (Random DNA under the paper's cheap gap model open 2 / extend 1
// drifts *positive* and saturates u8 past m ~ 600, so it is unusable here;
// the static headroom bound is a worst case; the adaptive engines stay in
// u8 as long as the *actual* peaks are in range, which run_u8_engine_bench
// checks.)
const seq::Sequence& random_protein(int m) {
  static std::map<int, seq::Sequence> cache;
  auto it = cache.find(m);
  if (it == cache.end())
    it = cache.emplace(m,
                       seq::random_sequence(seq::Alphabet::protein(), m, 11))
             .first;
  return it->second;
}

const seq::Scoring& dna_scoring() {
  static const seq::Scoring s = seq::Scoring::paper_example();
  return s;
}

void run_engine_bench_on(benchmark::State& state, const align::EngineFactory& make,
                         const seq::Sequence& s, const seq::Scoring& sc,
                         bool u8_only = false) {
  const int m = s.length();
  const auto engine = make();
  state.SetLabel(engine->name());
  const int r0 = m / 2;
  const int count = engine->lanes();
  std::vector<std::vector<align::Score>> store(static_cast<std::size_t>(count));
  std::vector<std::span<align::Score>> outs(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    store[static_cast<std::size_t>(k)].resize(static_cast<std::size_t>(m - (r0 + k)));
    outs[static_cast<std::size_t>(k)] = store[static_cast<std::size_t>(k)];
  }
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = &sc;
  job.r0 = r0;
  job.count = count;
  for (auto _ : state) {
    engine->align(job, outs);
    benchmark::DoNotOptimize(store[0].data());
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(engine->cells_computed()), benchmark::Counter::kIsRate);
  if (u8_only && engine->precision_stats().i16_sweeps > 0)
    state.SkipWithError("escalated to i16; the rate is not a u8 rate");
}

void run_engine_bench(benchmark::State& state, const align::EngineFactory& make) {
  run_engine_bench_on(state, make, titin(static_cast<int>(state.range(0))),
                      scoring());
}

void run_engine_bench(benchmark::State& state, align::EngineKind kind) {
  run_engine_bench(state, align::engine_factory(kind));
}

// u8 rates: the adaptive engine of one ISA on random protein, where no
// sweep escalates (run_engine_bench_on rejects a run that does).
void run_u8_engine_bench(benchmark::State& state,
                         const align::EngineFactory& make) {
  run_engine_bench_on(state, make,
                      random_protein(static_cast<int>(state.range(0))),
                      scoring(), /*u8_only=*/true);
}

void BM_Scalar(benchmark::State& state) {
  run_engine_bench(state, align::EngineKind::kScalar);
}
void BM_ScalarStriped(benchmark::State& state) {
  run_engine_bench(state, align::EngineKind::kScalarStriped);
}
void BM_Simd4Generic(benchmark::State& state) {
  run_engine_bench(state,
                   [] { return align::detail::make_simd_generic_engine(4); });
}
void BM_Simd8Generic(benchmark::State& state) {
  run_engine_bench(state,
                   [] { return align::detail::make_simd_generic_engine(8); });
}
void BM_Simd4(benchmark::State& state) {
  run_engine_bench(state, align::EngineKind::kSimd4);
}
void BM_Simd8(benchmark::State& state) {
  run_engine_bench(state, align::EngineKind::kSimd8);
}
void BM_Simd16(benchmark::State& state) {
  run_engine_bench(state, align::EngineKind::kSimd16);
}
void BM_Simd8x32(benchmark::State& state) {
  run_engine_bench(state, align::EngineKind::kSimd8x32);
}

// u8 lanes per ISA (random-protein workload, see random_protein above) and
// the adaptive engine on titin/protein (escalates transparently).
void BM_Simd8x8Generic(benchmark::State& state) {
  run_u8_engine_bench(
      state, [] { return align::detail::make_adaptive_generic_engine(); });
}
#if REPRO_HAVE_SSE2
void BM_Simd16x8Sse2(benchmark::State& state) {
  run_u8_engine_bench(state,
                      [] { return align::detail::make_adaptive_sse2_engine(); });
}
#endif
#if REPRO_ENABLE_AVX2
void BM_Simd32x8Avx2(benchmark::State& state) {
  if (!align::avx2_available()) {
    state.SkipWithError("AVX2 not available");
    return;
  }
  run_u8_engine_bench(state,
                      [] { return align::detail::make_adaptive_avx2_engine(); });
}
#endif
void BM_AutoBest(benchmark::State& state) {
  run_engine_bench(state, align::EngineKind::kSimdAuto);
}

BENCHMARK(BM_Scalar)->Arg(1000)->Arg(3000);
BENCHMARK(BM_ScalarStriped)->Arg(1000)->Arg(3000);
BENCHMARK(BM_Simd4Generic)->Arg(3000);
BENCHMARK(BM_Simd8Generic)->Arg(3000);
BENCHMARK(BM_Simd4)->Arg(1000)->Arg(3000);
BENCHMARK(BM_Simd8)->Arg(1000)->Arg(3000);
BENCHMARK(BM_Simd16)->Arg(1000)->Arg(3000);
BENCHMARK(BM_Simd8x32)->Arg(1000)->Arg(3000);
BENCHMARK(BM_Simd8x8Generic)->Arg(3000);
#if REPRO_HAVE_SSE2
BENCHMARK(BM_Simd16x8Sse2)->Arg(1000)->Arg(3000);
#endif
#if REPRO_ENABLE_AVX2
BENCHMARK(BM_Simd32x8Avx2)->Arg(1000)->Arg(3000);
#endif
BENCHMARK(BM_AutoBest)->Arg(1000)->Arg(3000);

// Checkpoint-resume kernel cost: a sweep resumed from a saved (H, MaxY) row
// state at 50 % / 90 % of the group's depth versus the same sweep from
// scratch (depth 0). The per-sweep rate ("sweeps/s") shows the resume win;
// cells/s stays flat because resumed rows are discounted from the counter.
void run_resume_bench(benchmark::State& state, const align::EngineFactory& make) {
  const int m = static_cast<int>(state.range(0));
  const int pct = static_cast<int>(state.range(1));
  const auto& s = titin(m);
  const auto engine = make();
  const int r0 = m / 2;
  const int count = engine->lanes();
  std::vector<std::vector<align::Score>> store(static_cast<std::size_t>(count));
  std::vector<std::span<align::Score>> outs(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    store[static_cast<std::size_t>(k)].resize(static_cast<std::size_t>(m - (r0 + k)));
    outs[static_cast<std::size_t>(k)] = store[static_cast<std::size_t>(k)];
  }
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = &scoring();
  job.r0 = r0;
  job.count = count;
  align::CheckpointSink sink;
  align::CheckpointView view;
  if (pct > 0) {
    const int row = std::max(1, (r0 - 1) * pct / 100);
    sink.stride = row;  // emits rows row, 2*row, ... plus r0-1
    sink.top_row = r0 - 1;
    job.sink = &sink;
    engine->align(job, outs);
    job.sink = nullptr;
    for (int t = 0; t < sink.count; ++t) {
      const align::CheckpointRow& cr = sink.rows[static_cast<std::size_t>(t)];
      if (cr.row != row) continue;
      view.row = cr.row;
      view.lanes = sink.lanes;
      view.elem_size = sink.elem_size;
      view.h = cr.h.data();
      view.max_y = cr.max_y.data();
      view.bytes = cr.h.size();
      job.resume = &view;
    }
  }
  for (auto _ : state) {
    engine->align(job, outs);
    benchmark::DoNotOptimize(store[0].data());
  }
  state.counters["sweeps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(engine->cells_computed()), benchmark::Counter::kIsRate);
}
void BM_ScalarResume(benchmark::State& state) {
  run_resume_bench(state, align::engine_factory(align::EngineKind::kScalar));
}
void BM_Simd8GenericResume(benchmark::State& state) {
  run_resume_bench(state,
                   [] { return align::detail::make_simd_generic_engine(8); });
}
BENCHMARK(BM_ScalarResume)
    ->Args({2000, 0})
    ->Args({2000, 50})
    ->Args({2000, 90});
BENCHMARK(BM_Simd8GenericResume)
    ->Args({2000, 0})
    ->Args({2000, 50})
    ->Args({2000, 90});

// The lowcomplex-seq input of perfbench (seed 2003): protein tandem repeats
// whose first sweep escalates 44 of its 94 `auto` groups from u8 to i16.
const seq::Sequence& lowcomplex() {
  static const seq::Sequence s = [] {
    seq::RepeatSpec spec;
    spec.unit_length = 24;
    spec.copies = 62;
    spec.conservation = 0.95;
    spec.indel_rate = 0.01;
    spec.tandem = true;
    return seq::make_repeat_sequence(seq::Alphabet::protein(), 3000, spec,
                                     2003)
        .sequence;
  }();
  return s;
}

// The first sweep of lowcomplex(): every group through a fresh `auto`
// engine (escalation is sticky per engine) with a checkpoint sink staging
// 16 rows per sweep, as the finder does.
void BM_AutoFirstSweepLowcomplex(benchmark::State& state) {
  const seq::Sequence& s = lowcomplex();
  const int m = s.length();
  std::vector<std::vector<align::Score>> rows;
  std::vector<std::span<align::Score>> outs;
  align::CheckpointSink sink;
  std::uint64_t escalations = 0;
  for (auto _ : state) {
    const auto engine = align::make_engine(align::EngineKind::kSimdAuto);
    const int lanes = engine->lanes();
    rows.resize(static_cast<std::size_t>(lanes));
    for (int r0 = 1; r0 < m; r0 += lanes) {
      const int count = std::min(lanes, m - r0);
      outs.clear();
      for (int k = 0; k < count; ++k) {
        auto& row = rows[static_cast<std::size_t>(k)];
        row.resize(static_cast<std::size_t>(m - r0 - k));
        outs.emplace_back(row);
      }
      align::GroupJob job;
      job.seq = s.codes();
      job.scoring = &scoring();
      job.r0 = r0;
      job.count = count;
      sink.stride = (r0 + count - 1 + 15) / 16;
      sink.top_row = r0 - 1;
      job.sink = &sink;
      engine->align(job, outs);
    }
    escalations = engine->precision_stats().escalations;
  }
  state.counters["escalations"] = static_cast<double>(escalations);
}
BENCHMARK(BM_AutoFirstSweepLowcomplex)
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);

// Where one low-complexity realignment spends its time. The group is the
// first escalated one (a double-pumped i16 group under `auto`) at or past
// m/2 of lowcomplex() whose realignment under the
// override triangle of the run's 25 tops resumes above its last staged row.
// Each iteration times it five ways:
//   full     resumed at the deepest clean staged row R, emitting, overrides
//   no_emit  the same without the checkpoint sink
//   plain    the same without the overrides
//   one@R    split r0 alone (count 1, so only rows R+1..r0), from R, plain
//   one@R2   split r0 alone from the last staged row R2 = r0 - 1: one row
// and the best time of each gives, by differences: checkpoint emission
// (full - no_emit); the restore and resume-diagonal capture (one@R2 less
// its one row, a row costing (one@R - one@R2) / (R2 - R)); the column
// loops (no_emit less the restore), of which the override cuts are
// no_emit - plain.
struct RealignCase {
  const seq::Sequence& s;
  std::unique_ptr<align::OverrideTriangle> tri{};
  std::unique_ptr<align::Engine> engine{};
  int r0 = 0;
  align::CheckpointSink first{};  ///< the group's first sweep's staged rows
  int resume_t = 0;             ///< index of row R in first.rows
};

const RealignCase& lowcomplex_realign_case() {
  static const RealignCase c = [] {
    RealignCase rc{lowcomplex()};
    const int m = rc.s.length();
    core::FinderOptions opt;
    opt.num_top_alignments = 25;
    const auto finder_engine = align::make_engine(align::EngineKind::kSimdAuto);
    const auto found =
        core::find_top_alignments(rc.s, scoring(), opt, *finder_engine);
    rc.tri = std::make_unique<align::OverrideTriangle>(m);
    std::vector<std::pair<int, int>> pairs;
    for (const auto& top : found.tops)
      for (const auto& [i, j] : top.pairs) {
        rc.tri->set(i, j);
        pairs.emplace_back(i, j);
      }
    std::sort(pairs.begin(), pairs.end());
    const align::PairDirtyIndex dirty(pairs);
    rc.engine = align::make_engine(align::EngineKind::kSimdAuto);
    const int lanes = rc.engine->lanes();
    for (int r0 = 1; r0 < m; r0 += lanes) {
      const int count = std::min(lanes, m - r0);
      if (r0 < m / 2 || count < lanes) continue;
      std::vector<std::vector<align::Score>> rows;
      std::vector<std::span<align::Score>> outs;
      for (int k = 0; k < count; ++k)
        rows.emplace_back(static_cast<std::size_t>(m - r0 - k));
      for (auto& row : rows) outs.emplace_back(row);
      align::GroupJob job;
      job.seq = rc.s.codes();
      job.scoring = &scoring();
      job.r0 = r0;
      job.count = count;
      rc.first.stride = (r0 + count - 1 + 15) / 16;  // 16 per sweep
      rc.first.top_row = r0 - 1;
      job.sink = &rc.first;
      const auto escalations = rc.engine->precision_stats().escalations;
      rc.engine->align(job, outs);
      if (rc.engine->precision_stats().escalations == escalations) continue;
      const int clean = dirty.min_dirty_row(r0);
      int t = rc.first.count - 1;
      while (t >= 0 && rc.first.rows[static_cast<std::size_t>(t)].row >= clean)
        --t;
      if (t < 0 || t == rc.first.count - 1) continue;
      rc.r0 = r0;
      rc.resume_t = t;
      return rc;
    }
    REPRO_CHECK_MSG(false, "no escalated, partly clean lowcomplex group");
    return rc;
  }();
  return c;
}

void BM_AutoI16RealignSplit(benchmark::State& state) {
  const RealignCase& c = lowcomplex_realign_case();
  const int m = c.s.length();
  const int count = c.engine->lanes();
  const int rows_total = c.r0 + count - 1;
  std::vector<std::vector<align::Score>> rows;
  std::vector<std::span<align::Score>> outs;
  for (int k = 0; k < count; ++k)
    rows.emplace_back(static_cast<std::size_t>(m - c.r0 - k));
  for (auto& row : rows) outs.emplace_back(row);
  const auto view_at = [&](int t) {
    const align::CheckpointRow& cr = c.first.rows[static_cast<std::size_t>(t)];
    return align::CheckpointView{cr.row,         c.first.lanes,
                                 c.first.elem_size, cr.h.data(),
                                 cr.max_y.data(), cr.h.size()};
  };
  const align::CheckpointView at_r = view_at(c.resume_t);
  const align::CheckpointView at_r2 = view_at(c.first.count - 1);
  align::CheckpointSink sink;
  sink.stride = c.first.stride;
  sink.top_row = c.r0 - 1;
  const auto sweep = [&](const align::CheckpointView& from, int lanes,
                         bool emit, bool overrides) {
    align::GroupJob job;
    job.seq = c.s.codes();
    job.scoring = &scoring();
    job.overrides = overrides ? c.tri.get() : nullptr;
    job.r0 = c.r0;
    job.count = lanes;
    job.resume = &from;
    job.sink = emit ? &sink : nullptr;
    return bench::time_once([&] {
      c.engine->align(job, std::span(outs).first(static_cast<std::size_t>(lanes)));
    });
  };
  double full = 1e300, no_emit = 1e300, plain = 1e300;
  double one_r = 1e300, one_r2 = 1e300;
  for (auto _ : state) {
    full = std::min(full, sweep(at_r, count, true, true));
    no_emit = std::min(no_emit, sweep(at_r, count, false, true));
    plain = std::min(plain, sweep(at_r, count, false, false));
    one_r = std::min(one_r, sweep(at_r, 1, false, false));
    one_r2 = std::min(one_r2, sweep(at_r2, 1, false, false));
  }
  const double restore = one_r2 - (one_r - one_r2) / (at_r2.row - at_r.row);
  const auto ms = [](double secs) { return benchmark::Counter(secs * 1e3); };
  state.counters["r0"] = c.r0;
  state.counters["resume_row"] = at_r.row;
  state.counters["rows"] = rows_total;
  state.counters["full_ms"] = ms(full);
  state.counters["restore_ms"] = ms(restore);
  state.counters["loops_ms"] = ms(no_emit - restore);
  state.counters["override_ms"] = ms(no_emit - plain);
  state.counters["emit_ms"] = ms(full - no_emit);
}
BENCHMARK(BM_AutoI16RealignSplit)->Iterations(40)->Unit(benchmark::kMillisecond);

void BM_GeneralGapCell(benchmark::State& state) {
  // The old algorithm's O(n)/cell kernel on a small rectangle.
  const int m = static_cast<int>(state.range(0));
  const auto& s = titin(std::max(m, 200));
  const auto sub = s.subsequence(0, m);
  const auto engine = align::make_engine(align::EngineKind::kGeneralGap);
  align::GroupJob job;
  job.seq = sub.codes();
  job.scoring = &scoring();
  job.r0 = m / 2;
  job.count = 1;
  std::vector<align::Score> row(static_cast<std::size_t>(m - m / 2));
  std::span<align::Score> out(row);
  for (auto _ : state) {
    engine->align(job, std::span<const std::span<align::Score>>(&out, 1));
    benchmark::DoNotOptimize(row.data());
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(engine->cells_computed()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GeneralGapCell)->Arg(200)->Arg(400);

void BM_OverrideContains(benchmark::State& state) {
  const int m = 4000;
  align::OverrideTriangle tri(m);
  util::Rng rng(5);
  for (int k = 0; k < 20000; ++k) {
    const int i = static_cast<int>(rng.below(m - 1));
    const int j = i + 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1 - i)));
    tri.set(i, j);
  }
  int i = 0;
  std::uint64_t acc = 0;
  for (auto _ : state) {
    const int a = i % (m - 1);
    acc += tri.contains(a, a + 1 + (i * 7) % (m - 1 - a)) ? 1 : 0;
    ++i;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_OverrideContains);

void BM_QueuePushPop(benchmark::State& state) {
  const auto groups = core::make_groups(8000, 8);
  for (auto _ : state) {
    core::GroupQueue queue;
    for (std::size_t gi = 0; gi < groups.size(); ++gi)
      queue.push(static_cast<int>(gi), groups[gi].key());
    while (auto top = queue.pop_best()) benchmark::DoNotOptimize(*top);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(groups.size()));
}
BENCHMARK(BM_QueuePushPop);

void BM_Traceback(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto& s = titin(m);
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = &scoring();
  job.r0 = m / 2;
  job.count = 1;
  for (auto _ : state) {
    const auto tb = align::traceback_best(job);
    benchmark::DoNotOptimize(tb.score);
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * (m / 2) * (m - m / 2),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Traceback)->Arg(1000)->Arg(2000);

// ---------------------------------------------------------------------------
// Adaptive-precision ablation (--json path): u8 vs i16 kernel rates per ISA,
// a same-tops matrix over every engine/precision combo, and the escalation
// demonstration on a saturating workload.

double kernel_rate(align::Engine& engine, const seq::Sequence& s,
                   const seq::Scoring& sc) {
  const int m = s.length();
  const int r0 = m / 2;
  const int count = engine.lanes();
  std::vector<std::vector<align::Score>> store(static_cast<std::size_t>(count));
  std::vector<std::span<align::Score>> outs(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    store[static_cast<std::size_t>(k)].resize(
        static_cast<std::size_t>(m - (r0 + k)));
    outs[static_cast<std::size_t>(k)] = store[static_cast<std::size_t>(k)];
  }
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = &sc;
  job.r0 = r0;
  job.count = count;
  engine.align(job, outs);  // warm-up: builds the query profile
  engine.reset_counters();
  constexpr int kReps = 5;
  const double secs = bench::time_best_of(kReps, [&] { engine.align(job, outs); });
  const double cells = static_cast<double>(engine.cells_computed()) / kReps;
  return cells / std::max(secs, 1e-12);
}

int run_precision_ablation(int argc, char** argv) {
  util::Args args(argc, argv,
                  {{"m", "kernel-rate sequence length (random DNA)"},
                   {"tops", "top alignments for the same-tops matrix"},
                   {"json", bench::kJsonFlagHelp}});
  if (args.help_requested()) return 0;
  const int m = static_cast<int>(args.get_int("m", 1500));
  const int tops = static_cast<int>(args.get_int("tops", 6));

  obs::MetricsReport report("bench_kernels.precision");
  report.param("m", m);
  report.param("tops", tops);

  // --- u8 vs i16 cell rates, one row per available ISA pair. The
  // random-protein workload stays inside the u8 headroom at any length
  // (see random_protein).
  bench::header("u8 vs i16 kernel rates (random protein, m=" +
                std::to_string(m) + ")");
  const auto& rate_seq = random_protein(m);
  const auto& rate_sc = scoring();
  // The u8 side is the ISA's adaptive engine, which stays in u8 lanes on
  // this input; the i16 side is the fixed i16 engine of the same ISA.
  struct IsaPair {
    std::string isa;
    align::EngineFactory u8;
    align::EngineFactory i16;
  };
  std::vector<IsaPair> pairs{
      {"generic", [] { return align::detail::make_adaptive_generic_engine(); },
       [] { return align::detail::make_simd_generic_engine(8); }}};
#if REPRO_HAVE_SSE2
  pairs.push_back(
      {"sse2", [] { return align::detail::make_adaptive_sse2_engine(); },
       [] { return align::detail::make_simd_engine(8); }});
#endif
#if REPRO_ENABLE_AVX2
  if (align::avx2_available())
    pairs.push_back(
        {"avx2", [] { return align::detail::make_adaptive_avx2_engine(); },
         [] { return align::detail::make_simd_avx2_engine(); }});
#endif
  util::Table rate_table({"isa", "u8 cells/s", "i16 cells/s", "speedup"});
  rate_table.set_precision(2);
  double best_speedup = 0.0;
  bool u8_clean = true;
  for (const auto& p : pairs) {
    const auto u8 = p.u8();
    const double r8 = kernel_rate(*u8, rate_seq, rate_sc);
    const double r16 = kernel_rate(*p.i16(), rate_seq, rate_sc);
    if (u8->precision_stats().i16_sweeps > 0) {
      std::cout << "  " << u8->name() << " escalated: no u8 rate\n";
      u8_clean = false;
    }
    const double speedup = r8 / std::max(r16, 1e-12);
    rate_table.add_row({p.isa, r8, r16, speedup});
    report.metric("i8_cells_per_sec_" + p.isa, r8);
    report.metric("i16_cells_per_sec_" + p.isa, r16);
    report.metric("i8_vs_i16_speedup_" + p.isa, speedup);
    // The SIMD pairs double the lane count, so their speedup is the claim;
    // the generic pair keeps 8 lanes either way and is reported for context.
    if (p.isa != "generic") best_speedup = std::max(best_speedup, speedup);
  }
  rate_table.print(std::cout);
  report.metric("i8_vs_i16_speedup_best", best_speedup);

  // --- Same-tops matrix: every engine versus the scalar oracle, on an
  // in-range DNA workload and a saturating protein workload.
  bench::header("same-tops matrix vs scalar");
  core::FinderOptions opt;
  opt.num_top_alignments = tops;
  std::int64_t combos = 0;
  bool all_match = true;
  const auto check_matrix = [&](const seq::Sequence& s, const seq::Scoring& sc,
                                const std::vector<align::EngineFactory>& engines,
                                const std::string& label) {
    const auto scalar = align::make_engine(align::EngineKind::kScalar);
    const auto reference = find_top_alignments(s, sc, opt, *scalar);
    for (const auto& make : engines) {
      const auto engine = make();
      const auto res = find_top_alignments(s, sc, opt, *engine);
      std::string diff;
      const bool ok = core::same_tops(reference.tops, res.tops, &diff);
      ++combos;
      all_match = all_match && ok;
      std::cout << "  " << label << " / " << engine->name()
                << (ok ? ": tops identical\n" : ": MISMATCH " + diff + "\n");
    }
  };
  // Every kind as dispatched, plus the portable and SSE2 instantiations
  // that dispatch passes over on this host. The adaptive engines run u8
  // lanes on the in-range workload and escalate on the saturating one.
  std::vector<align::EngineFactory> engines;
  for (const auto kind :
       {align::EngineKind::kScalarStriped, align::EngineKind::kSimd4,
        align::EngineKind::kSimd8, align::EngineKind::kSimd16,
        align::EngineKind::kSimd8x32, align::EngineKind::kSimd4x32Generic,
        align::EngineKind::kSimdAuto})
    engines.push_back(align::engine_factory(kind));
  for (const int lanes : {4, 8, 16})
    engines.push_back(
        [lanes] { return align::detail::make_simd_generic_engine(lanes); });
  engines.push_back([] { return align::detail::make_simd32_generic_engine(8); });
  engines.push_back([] { return align::detail::make_adaptive_generic_engine(); });
#if REPRO_HAVE_SSE2
  engines.push_back([] { return align::detail::make_adaptive_sse2_engine(); });
#endif

  const auto in_range = seq::synthetic_dna_tandem(200, 9, 5, 21).sequence;
  check_matrix(in_range, dna_scoring(), engines, "dna-in-range");

  seq::RepeatSpec spec;
  spec.unit_length = 24;
  spec.copies = 8;
  spec.conservation = 0.95;
  spec.indel_rate = 0.0;
  spec.tandem = true;
  const auto saturating =
      seq::make_repeat_sequence(seq::Alphabet::protein(), 240, spec, 22);
  check_matrix(saturating.sequence, scoring(), engines, "protein-saturating");
  report.metric("same_tops", all_match ? 1.0 : 0.0);
  report.counter("combos_checked", static_cast<std::uint64_t>(combos));

  // --- Escalation demonstration: the adaptive engine on the saturating
  // workload must escalate (and, per the matrix above, still match scalar).
  const auto auto_engine = align::make_engine(align::EngineKind::kSimdAuto);
  const auto sat_res =
      find_top_alignments(saturating.sequence, scoring(), opt, *auto_engine);
  const auto prec = auto_engine->precision_stats();
  const double esc_rate =
      prec.i8_sweeps > 0 ? 100.0 * static_cast<double>(prec.escalations) /
                               static_cast<double>(prec.i8_sweeps)
                         : 0.0;
  bench::header("adaptive escalation (saturating protein repeats)");
  std::cout << "  engine " << auto_engine->name() << ": " << prec.i8_sweeps
            << " u8 sweeps, " << prec.escalations << " escalations ("
            << esc_rate << " %), " << prec.i16_sweeps << " i16 sweeps, "
            << sat_res.tops.size() << " tops\n";
  report.counter("i8_sweeps", prec.i8_sweeps);
  report.counter("i16_sweeps", prec.i16_sweeps);
  report.counter("escalations", prec.escalations);
  report.counter("profile_hits", prec.profile_hits);
  report.metric("escalation_rate_pct", esc_rate);

  bench::maybe_write_json(args, report);
  return all_match && u8_clean && prec.escalations > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // --json selects the precision-ablation path; everything else is
  // google-benchmark's own CLI, exactly as BENCHMARK_MAIN() would run it.
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--json" || arg.rfind("--json=", 0) == 0)
      return run_precision_ablation(argc, argv);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
