// perfbench — the repository benchmark's measuring program.
//
//   perfbench oracle --workload titin-seq --seed 2003 --trace 0
//   perfbench run --workload titin-seq --seed 2003 --seconds 15 --trace 0
//
// Run from the repository root: the oracle cache is .bench_cache/ and the
// trace files go to .bench_out/, both relative to the working directory.
//
// `oracle` makes sure the tops and the cell count of the benchmark's own
// reference search (reference_count.hpp) for the workload's input are in
// the cache (5-10 s at m=3000). With --trace 1 it also caches the scalar
// engine's sequential tops (20-50 s) and checks that they equal the
// reference search's. `run` sets the workload up, calls its finder in a
// loop for --seconds, and checks every call's tops against the reference
// search's; the end-to-end times are given per its cells. With --trace 0
// it prints the end-to-end metrics; with --trace 1 it splits the time
// between an untraced and a traced loop and prints the per-layer metrics
// of the traced pass, after the closed-form count checks and a replay of
// the accepted tops' tracebacks. The last stdout line is one JSON object;
// perfbench/run.py turns it into the benchmark's result line.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "align/traceback.hpp"
#include "cluster/master_worker.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "parallel/parallel_finder.hpp"
#include "seq/fasta.hpp"
#include "seq/generator.hpp"
#include "host_probe.hpp"
#include "reference_count.hpp"
#include "traced_engine.hpp"

namespace perfbench {
namespace {

using namespace repro;

constexpr int kLength = 3000;
constexpr int kTops = 25;
constexpr int kWorkers = 4;     // threads of titin-t4, ranks of titin-r4
constexpr double kSetupWindow = 1.0;  // seconds of timed set-ups per run
constexpr int kBurst = 20;            // set-ups per burst
// Host-probe time (host_probe.hpp) of the development host, a Xeon under
// KVM, in a quiet spell; setup_s is given in seconds at that host speed.
constexpr double kReferenceProbe = 3.2e-3;

enum class Input { kTitin, kLowComplexity };
enum class Driver { kSequential, kThreads, kRanks };

struct Workload {
  std::string_view name;
  Input input;
  Driver driver;
};

constexpr Workload kWorkloads[] = {
    {"titin-seq", Input::kTitin, Driver::kSequential},
    {"titin-t4", Input::kTitin, Driver::kThreads},
    {"lowcomplex-seq", Input::kLowComplexity, Driver::kSequential},
    {"titin-r4", Input::kTitin, Driver::kRanks},
};

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

seq::Scoring scoring() {
  return {seq::ScoreMatrix::blosum62(), seq::GapPenalty{10, 1}};
}

core::FinderOptions finder_options() {
  core::FinderOptions opt;
  opt.num_top_alignments = kTops;
  return opt;
}

seq::Sequence generate(Input input, std::uint64_t seed) {
  if (input == Input::kTitin) return seq::synthetic_titin(kLength, seed).sequence;
  seq::RepeatSpec spec;
  spec.unit_length = 24;
  spec.copies = 62;
  spec.conservation = 0.95;
  spec.indel_rate = 0.01;
  spec.tandem = true;
  return seq::make_repeat_sequence(seq::Alphabet::protein(), kLength, spec,
                                   seed, "low-complexity")
      .sequence;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The cores the process may run on, read before anything is pinned.
const std::vector<int>& allowed_cores() {
  static const std::vector<int> cores = [] {
    std::vector<int> c;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int k = 0; k < CPU_SETSIZE; ++k)
        if (CPU_ISSET(k, &set)) c.push_back(k);
    return c;
  }();
  return cores;
}

/// Pins the calling thread to one core for its lifetime, then restores the
/// thread's original affinity. Successive guards walk the allowed cores in
/// turn, so a run's sequential calls sample every core: on a host whose
/// cores are slowed by other tenants at different times, a run left on one
/// core would measure that core's neighbours.
class RotatingPin {
 public:
  RotatingPin() {
    const std::vector<int>& cores = allowed_cores();
    if (cores.empty() || sched_getaffinity(0, sizeof original_, &original_) != 0)
      return;
    static std::size_t next = 0;
    const int core = cores[next++ % cores.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(core, &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0) core_ = core;
  }
  RotatingPin(const RotatingPin&) = delete;
  RotatingPin& operator=(const RotatingPin&) = delete;
  ~RotatingPin() {
    if (core_ >= 0) sched_setaffinity(0, sizeof original_, &original_);
  }

  /// The core the thread is pinned to, or -1 when pinning failed.
  [[nodiscard]] int core() const { return core_; }

 private:
  cpu_set_t original_{};
  int core_ = -1;
};

/// Seconds stolen from each vCPU so far (the steal column of /proc/stat,
/// indexed by cpu id): time the hypervisor ran another guest while this
/// one had work. Empty when /proc/stat cannot be read.
std::vector<double> steal_seconds() {
  std::vector<double> steal;
  std::ifstream in("/proc/stat");
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 4 || line.compare(0, 3, "cpu") != 0 ||
        !std::isdigit(static_cast<unsigned char>(line[3])))
      continue;
    std::istringstream fields(line.substr(3));
    std::size_t id = 0;
    std::uint64_t v[8] = {};  // user nice system idle iowait irq softirq steal
    fields >> id;
    for (std::uint64_t& x : v) fields >> x;
    if (!fields) continue;
    if (id >= steal.size()) steal.resize(id + 1, 0.0);
    steal[id] = static_cast<double>(v[7]) / tick;
  }
  return steal;
}

/// Mean over `cores` of the time stolen between two steal_seconds() reads.
double mean_stolen(const std::vector<double>& before,
                   const std::vector<double>& after,
                   const std::vector<int>& cores) {
  double sum = 0.0;
  int n = 0;
  for (int c : cores) {
    const auto k = static_cast<std::size_t>(c);
    if (c < 0 || k >= before.size() || k >= after.size()) continue;
    sum += after[k] - before[k];
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---------------------------------------------------------------- set-up

struct Setup {
  seq::Sequence sequence;
  std::string engine_name;  ///< what the `auto` engine dispatched to
  double seconds = 0.0;
};

/// What a user pays before the first finder call: generate the input,
/// round-trip it through FASTA, construct the engine.
Setup set_up(const Workload& w, std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  const std::vector<seq::Sequence> generated{generate(w.input, seed)};
  std::stringstream fasta;
  seq::write_fasta(fasta, generated);
  std::vector<seq::Sequence> records =
      seq::read_fasta(fasta, seq::Alphabet::protein());
  if (records.size() != 1 ||
      !std::ranges::equal(records[0].codes(), generated[0].codes()))
    throw std::runtime_error("FASTA round-trip changed the input");
  const auto engine = align::make_engine(align::EngineKind::kSimdAuto);
  Setup s{std::move(records[0]), engine->name(), 0.0};
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

// ---------------------------------------------------------------- oracle

/// Top alignments a search accepted and the cells it counted: the
/// reference search's (reference_count.hpp) or the scalar oracle's.
struct Oracle {
  std::vector<core::TopAlignment> tops;
  std::uint64_t cells = 0;
};

constexpr std::string_view kReferenceMagic = "perfbench-reference-v2";
constexpr std::string_view kScalarMagic = "perfbench-oracle-v1";

/// FNV-1a over everything the oracle depends on.
std::uint64_t input_key(const seq::Sequence& s) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (std::uint8_t c : s.codes()) mix(c);
  for (int v : {kLength, kTops, 10, 1}) mix(static_cast<std::uint64_t>(v));
  return h;
}

std::filesystem::path cache_path(std::string_view kind, const seq::Sequence& s,
                                 std::uint64_t seed) {
  std::ostringstream name;
  name << kind << "-s" << seed << '-' << std::hex << std::setw(16)
       << std::setfill('0') << input_key(s) << ".txt";
  return std::filesystem::path(".bench_cache") / name.str();
}

void save_oracle(const std::filesystem::path& path, std::string_view magic,
                 const Oracle& o) {
  std::filesystem::create_directories(path.parent_path());
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    out << magic << ' ' << o.cells << ' ' << o.tops.size() << '\n';
    for (const auto& t : o.tops) {
      out << t.r << ' ' << t.score << ' ' << t.end_x << ' ' << t.pairs.size();
      for (const auto& [i, j] : t.pairs) out << ' ' << i << ' ' << j;
      out << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
  }
  std::filesystem::rename(tmp, path);
}

bool load_oracle(const std::filesystem::path& path, std::string_view want,
                 Oracle& o) {
  std::ifstream in(path);
  std::string magic;
  std::size_t n = 0;
  if (!(in >> magic >> o.cells >> n) || magic != want) return false;
  o.tops.resize(n);
  for (auto& t : o.tops) {
    std::size_t pairs = 0;
    if (!(in >> t.r >> t.score >> t.end_x >> pairs)) return false;
    t.pairs.resize(pairs);
    for (auto& [i, j] : t.pairs)
      if (!(in >> i >> j)) return false;
  }
  return true;
}

Oracle compute_reference(const seq::Sequence& s) {
  ReferenceSearch ref = reference_search(s, scoring(), kTops);
  return {std::move(ref.tops), ref.cells};
}

Oracle compute_scalar(const seq::Sequence& s) {
  const auto engine = align::make_engine(align::EngineKind::kScalar);
  core::FinderResult res =
      core::find_top_alignments(s, scoring(), finder_options(), *engine);
  return {std::move(res.tops), res.stats.cells};
}

// ------------------------------------------------------------ finder call

struct Call {
  core::FinderResult result;
  cluster::ClusterRunInfo cluster;
  Clock::time_point begin;
  Clock::time_point end;
  double cpu_seconds = 0.0;
  double probe_seconds = 0.0;  ///< mean host probe time around the call
  double stolen_seconds = 0.0;  ///< mean vCPU steal on the call's cores

  [[nodiscard]] double seconds() const { return seconds_between(begin, end); }
};

/// One finder call through the public entry point `reprofind find` uses for
/// the workload's driver. A sequential call's engine is built before the
/// clock starts (set-up pays for construction) and the call runs on the
/// next core in turn; the parallel and cluster finders build their engines
/// from the factory inside the call and use every core. The host probe runs
/// on the call's cores right before and right after it, outside the timing.
Call call_finder(const Workload& w, const seq::Sequence& s,
                 const align::EngineFactory& factory) {
  const seq::Scoring sc = scoring();
  std::unique_ptr<align::Engine> engine;
  std::optional<RotatingPin> pin;
  if (w.driver == Driver::kSequential) {
    engine = factory();
    pin.emplace();
  }
  const auto probe = [&w] {
    return w.driver == Driver::kSequential ? probe_seconds()
                                           : probe_seconds_on(allowed_cores());
  };
  const std::vector<int> call_cores =
      pin ? std::vector<int>{pin->core()} : allowed_cores();
  Call c;
  const double probe_before = probe();
  const std::vector<double> steal0 = steal_seconds();
  const double cpu0 = process_cpu_seconds();
  c.begin = Clock::now();
  switch (w.driver) {
    case Driver::kSequential:
      c.result = core::find_top_alignments(s, sc, finder_options(), *engine);
      break;
    case Driver::kThreads: {
      parallel::ParallelOptions popt;
      popt.threads = kWorkers;
      popt.finder = finder_options();
      c.result = parallel::find_top_alignments_parallel(s, sc, popt, factory);
      break;
    }
    case Driver::kRanks: {
      cluster::ClusterOptions copt;
      copt.ranks = kWorkers;
      copt.row_storage = cluster::RowStorage::kMasterReplica;
      copt.finder = finder_options();
      c.result =
          cluster::find_top_alignments_cluster(s, sc, copt, factory, &c.cluster);
      break;
    }
  }
  c.end = Clock::now();
  c.cpu_seconds = process_cpu_seconds() - cpu0;
  c.stolen_seconds = mean_stolen(steal0, steal_seconds(), call_cores);
  c.probe_seconds = (probe_before + probe()) / 2;
  return c;
}

/// Counts a call as attempted and, when it threw or its tops differ from
/// the oracle's, as failed. Returns whether it passed.
struct Tally {
  int attempted = 0;
  int failed = 0;

  template <typename F>
  bool check(const Oracle& oracle, F&& run, Call& out) {
    ++attempted;
    try {
      out = run();
      std::string diff;
      if (core::same_tops(out.result.tops, oracle.tops, &diff)) return true;
      std::cerr << "perfbench: tops differ from the reference search's: " << diff
                << '\n';
    } catch (const std::exception& e) {
      std::cerr << "perfbench: finder call failed: " << e.what() << '\n';
    }
    ++failed;
    return false;
  }
};

// --------------------------------------------------------- traced layers

/// A traced call with the logs of the engines it made.
struct TracedCall {
  Call call;
  std::vector<std::shared_ptr<EngineLog>> logs;
};

/// Cells inside the requested rectangles, below the resume row.
std::uint64_t rect_cells(const AlignSpan& a, int m) {
  std::uint64_t cells = 0;
  for (int k = 0; k < a.count; ++k) {
    const int r = a.r0 + k;
    cells += static_cast<std::uint64_t>(r - a.resume_row) *
             static_cast<std::uint64_t>(m - r);
  }
  return cells;
}

struct LayerTotals {
  double first_s = 0, realign_s = 0;
  std::uint64_t first_calls = 0, realign_calls = 0, resumed_calls = 0;
  std::uint64_t realign_rows = 0, resumed_rows = 0;
  std::uint64_t rect = 0, first_rect = 0;
  std::uint64_t span_cells = 0;   ///< lane cells summed over the spans
  std::uint64_t inner_cells = 0;  ///< the wrapped engines' cells_computed
  align::PrecisionStats prec;
  int lanes = 0;
};

LayerTotals totals(const TracedCall& tc, int m, int lanes) {
  LayerTotals t;
  t.lanes = lanes;
  for (const auto& log : tc.logs) {
    for (const AlignSpan& a : log->spans) {
      const double secs = seconds_between(a.begin, a.end);
      const std::uint64_t rc = rect_cells(a, m);
      t.rect += rc;
      t.span_cells += static_cast<std::uint64_t>(a.r0 + a.count - 1 - a.resume_row) *
                      static_cast<std::uint64_t>(m - a.r0) *
                      static_cast<std::uint64_t>(lanes);
      if (a.first) {
        t.first_s += secs;
        ++t.first_calls;
        t.first_rect += rc;
      } else {
        t.realign_s += secs;
        ++t.realign_calls;
        t.realign_rows += static_cast<std::uint64_t>(a.r0 + a.count - 1);
        t.resumed_rows += static_cast<std::uint64_t>(a.resume_row);
        if (a.resume_row > 0) ++t.resumed_calls;
      }
    }
    t.inner_cells += log->inner_cells;
    t.prec.i8_sweeps += log->precision.i8_sweeps;
    t.prec.i16_sweeps += log->precision.i16_sweeps;
    t.prec.escalations += log->precision.escalations;
    t.prec.profile_builds += log->precision.profile_builds;
  }
  return t;
}

/// The closed-form count checks; returns the violations.
std::vector<std::string> check_counts(const LayerTotals& t, int m) {
  std::vector<std::string> bad;
  const auto mm = static_cast<std::uint64_t>(m);
  const std::uint64_t want_rect = (mm * mm * mm - mm) / 6;
  if (t.first_rect != want_rect)
    bad.push_back("first-sweep rect cells " + std::to_string(t.first_rect) +
                  " != (m^3-m)/6 = " + std::to_string(want_rect));
  const auto lanes = static_cast<std::uint64_t>(t.lanes);
  const std::uint64_t want_calls =
      (static_cast<std::uint64_t>(m - 1) + lanes - 1) / lanes;
  if (t.first_calls != want_calls)
    bad.push_back("first-sweep calls " + std::to_string(t.first_calls) +
                  " != ceil((m-1)/lanes) = " + std::to_string(want_calls));
  if (t.span_cells != t.inner_cells)
    bad.push_back("lane cells of the logged align calls " +
                  std::to_string(t.span_cells) + " != inner cells_computed " +
                  std::to_string(t.inner_cells));
  return bad;
}

struct TracebackSpan {
  Clock::time_point begin;
  Clock::time_point end;
  int r = 0;
  align::Score score = 0;
  std::uint64_t cells = 0;
};

struct Replay {
  double seconds = 0.0;
  std::uint64_t cells = 0;
  std::vector<TracebackSpan> spans;
  std::vector<std::string> mismatches;
};

/// Replays align::traceback_best for the accepted tops in acceptance order,
/// each under the triangle of the tops before it and against its
/// first-alignment row (recomputed by the scalar engine, outside the timed
/// span), and checks each replay reproduces the accepted top.
Replay replay_tracebacks(const seq::Sequence& s,
                         const std::vector<core::TopAlignment>& tops) {
  const seq::Scoring sc = scoring();
  const int m = s.length();
  align::OverrideTriangle triangle(m);
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  Replay rep;
  for (const core::TopAlignment& top : tops) {
    align::GroupJob job;
    job.seq = s.codes();
    job.scoring = &sc;
    job.r0 = top.r;
    job.count = 1;
    const std::vector<align::Score> original = scalar->align_one(job);
    job.overrides = &triangle;
    TracebackSpan span;
    span.begin = Clock::now();
    const align::Traceback tb =
        align::traceback_best(job, std::span<const align::Score>(original));
    span.end = Clock::now();
    span.r = top.r;
    span.score = tb.score;
    span.cells = static_cast<std::uint64_t>(top.r) *
                 static_cast<std::uint64_t>(m - top.r);
    rep.seconds += seconds_between(span.begin, span.end);
    rep.cells += span.cells;
    rep.spans.push_back(span);
    if (tb.score != top.score || tb.pairs != top.pairs)
      rep.mismatches.push_back(
          "traceback replay at r=" + std::to_string(top.r) + " scored " +
          std::to_string(tb.score) + ", accepted top scored " +
          std::to_string(top.score));
    for (const auto& [i, j] : top.pairs) triangle.set(i, j);
  }
  return rep;
}

// ------------------------------------------------------------ trace file

std::string track_name(const Workload& w, int track) {
  switch (w.driver) {
    case Driver::kSequential: return "main";
    case Driver::kThreads: return "worker " + std::to_string(track);
    case Driver::kRanks: return "rank " + std::to_string(track + 1);
  }
  return "main";
}

/// Chrome trace-event JSON (loads in Perfetto or chrome://tracing).
/// tid 1 is the calling thread: finder-call spans, sequential align spans
/// and the traceback replay; each worker thread or rank gets its own tid.
void write_trace(const std::filesystem::path& path, const Workload& w,
                 std::uint64_t seed, Clock::time_point epoch,
                 const std::vector<TracedCall>& calls, const Replay& replay) {
  if (!path.parent_path().empty())
    std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3);
  const auto us = [epoch](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  const auto tid_of = [&w](int track) {
    return w.driver == Driver::kSequential ? 1 : 10 + track;
  };
  bool first_event = true;
  const auto sep = [&]() -> std::ostream& {
    out << (first_event ? "\n" : ",\n");
    first_event = false;
    return out;
  };
  const auto span = [&](const std::string& name, int tid, Clock::time_point b,
                        Clock::time_point e, const std::string& args) {
    sep() << R"({"name":")" << name << R"(","ph":"X","pid":1,"tid":)" << tid
          << R"(,"ts":)" << us(b) << R"(,"dur":)" << us(e) - us(b)
          << R"(,"args":{)" << args << "}}";
  };
  const auto thread_name = [&](int tid, const std::string& name) {
    sep() << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << tid
          << R"(,"args":{"name":")" << name << R"("}})";
  };
  out << R"({"displayTimeUnit":"ms","traceEvents":[)";
  sep() << R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"perfbench )"
        << w.name << " seed " << seed << R"("}})";
  thread_name(1, "main");
  int max_tracks = 0;
  for (const TracedCall& tc : calls)
    max_tracks = std::max(max_tracks, static_cast<int>(tc.logs.size()));
  if (w.driver != Driver::kSequential)
    for (int k = 0; k < max_tracks; ++k) thread_name(tid_of(k), track_name(w, k));
  for (std::size_t c = 0; c < calls.size(); ++c) {
    const TracedCall& tc = calls[c];
    span(std::string(w.name) + " find", 1, tc.call.begin, tc.call.end,
         R"("call":)" + std::to_string(c) + R"(,"tops":)" +
             std::to_string(tc.call.result.tops.size()));
    for (const auto& log : tc.logs) {
      for (const AlignSpan& a : log->spans) {
        const char* kind =
            a.first ? "first" : (a.resume_row > 0 ? "resumed" : "realign");
        span(std::string("align ") + kind, tid_of(log->track), a.begin, a.end,
             R"("kind":")" + std::string(kind) + R"(","r0":)" + std::to_string(a.r0) +
                 R"(,"count":)" + std::to_string(a.count) + R"(,"resume_row":)" +
                 std::to_string(a.resume_row));
      }
    }
  }
  for (const TracebackSpan& t : replay.spans)
    span("traceback replay", 1, t.begin, t.end,
         R"("r":)" + std::to_string(t.r) + R"(,"score":)" + std::to_string(t.score) +
             R"(,"cells":)" + std::to_string(t.cells));
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics,
                  const std::map<std::string, std::string>& info) {
  std::ostringstream o;
  o << std::setprecision(12);
  o << R"({"correct":)" << (correct ? "true" : "false")
    << R"(,"attempted":)" << tally.attempted << R"(,"failed":)" << tally.failed
    << R"(,"metrics":{)";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    o << (i ? "," : "") << '"' << metrics[i].name << R"(":{"value":)"
      << metrics[i].value << R"(,"unit":")" << metrics[i].unit << R"("})";
  o << R"(},"info":{)";
  bool first = true;
  for (const auto& [k, v] : info) {
    o << (first ? "" : ",") << '"' << k << R"(":")" << v << '"';
    first = false;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

double pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}

// ------------------------------------------------------------- commands

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 2003;
  double seconds = 10;
  int trace = 0;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2)
    throw std::invalid_argument(
        "usage: perfbench <oracle|run> --workload NAME ...");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val);
    else throw std::invalid_argument("unknown option " + key);
  }
  if (a.command != "oracle" && a.command != "run")
    throw std::invalid_argument("unknown command " + a.command);
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1)
    throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

/// Loads the search cached under `kind` for the input, or runs `compute`
/// and caches its result.
template <typename F>
Oracle cached(std::string_view kind, std::string_view magic, const Args& a,
              const seq::Sequence& s, F&& compute) {
  const std::filesystem::path path = cache_path(kind, s, a.seed);
  Oracle o;
  if (load_oracle(path, magic, o)) return o;
  std::cerr << "perfbench: running the " << kind << " search for " << a.workload
            << " seed " << a.seed << '\n';
  o = compute(s);
  save_oracle(path, magic, o);
  return o;
}

/// Every run needs the reference search; a traced run also needs the scalar
/// oracle, whose tops must equal the reference search's.
void ensure_oracle(const Args& a, const seq::Sequence& s) {
  const Oracle ref = cached("reference", kReferenceMagic, a, s, compute_reference);
  if (a.trace == 0) return;
  const Oracle scalar = cached("scalar", kScalarMagic, a, s, compute_scalar);
  std::string diff;
  if (!core::same_tops(ref.tops, scalar.tops, &diff))
    throw std::runtime_error("reference search differs from the scalar oracle: " +
                             diff);
}

Oracle load_cached(std::string_view kind, std::string_view magic,
                   const seq::Sequence& s, std::uint64_t seed) {
  Oracle o;
  if (!load_oracle(cache_path(kind, s, seed), magic, o))
    throw std::runtime_error("no cached " + std::string(kind) +
                             " search; run `perfbench oracle` first");
  return o;
}

int cmd_oracle(const Args& a) {
  const Workload& w = find_workload(a.workload);
  const Setup setup = set_up(w, a.seed);
  ensure_oracle(a, setup.sequence);
  return 0;
}

int cmd_run(const Args& a) {
  const Clock::time_point epoch = Clock::now();
  const Workload& w = find_workload(a.workload);

  const Setup setup = set_up(w, a.seed);
  const seq::Sequence& s = setup.sequence;
  const int m = s.length();

  // Set-up is timed for kSetupWindow before the first finder call, in
  // bursts of kBurst on one core, the cores in turn, each burst after an
  // untimed set-up on its core; a burst counts its fastest set-up. A set-up
  // takes ~50 us, and other tenants' load on the host slows a share of
  // them, which differs from run to run, by up to 1.5x; the median of the
  // burst minima moved by about 5 % across ten runs where the plain median
  // moved by 40 %. A finder call leaves the heap and the caches in a state
  // that slows later set-ups by up to 1.6x, by an amount that differs from
  // call to call, and the first set-up after a move to another core runs
  // on cold caches.
  //
  // The median is then scaled from the host's speed during the window to
  // the speed at which the probe takes kReferenceProbe, like the finder
  // calls' times: a spell in which other tenants slowed every core slowed
  // the burst minima by 1.85x and the probe by 1.7x.
  const auto probe_each_core = [] {
    const std::size_t n = std::max<std::size_t>(allowed_cores().size(), 1);
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const RotatingPin pin;
      sum += probe_seconds();
    }
    return sum / static_cast<double>(n);
  };
  const double setup_probe_before = probe_each_core();
  std::vector<double> setup_times;
  for (const Clock::time_point start = Clock::now();
       seconds_between(start, Clock::now()) < kSetupWindow;) {
    const RotatingPin pin;
    set_up(w, a.seed);
    double fastest = set_up(w, a.seed).seconds;
    for (int i = 1; i < kBurst; ++i)
      fastest = std::min(fastest, set_up(w, a.seed).seconds);
    setup_times.push_back(fastest);
  }
  const double setup_probe = (setup_probe_before + probe_each_core()) / 2;
  const double setup_s =
      quantile(setup_times, 0.5) * kReferenceProbe / setup_probe;

  const Oracle oracle = load_cached("reference", kReferenceMagic, s, a.seed);

  const align::EngineFactory plain =
      align::engine_factory(align::EngineKind::kSimdAuto);
  Tally tally;
  std::vector<std::string> violations;

  // Untraced loop: one warm-up call, then calls until the window closes.
  const double untraced_window = a.trace ? a.seconds / 2 : a.seconds;
  std::vector<double> wall, running, cpu, probe;
  {
    Call c;
    tally.check(oracle, [&] { return call_finder(w, s, plain); }, c);
    const Clock::time_point start = Clock::now();
    while (seconds_between(start, Clock::now()) < untraced_window) {
      if (tally.check(oracle, [&] { return call_finder(w, s, plain); }, c)) {
        wall.push_back(c.seconds());
        running.push_back(c.seconds() - c.stolen_seconds);
        cpu.push_back(c.cpu_seconds);
        probe.push_back(c.probe_seconds);
      }
    }
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // End-to-end times are normalised twice. Per billion reference cells: the
  // seed changes how much work the search needs (4.7-5.5 G reference cells
  // on titin, 6.0-9.4 G on the low-complexity input), and dividing by the
  // benchmark's own count keeps that out of the across-seed spread while
  // padded, speculative or redundant lanes still cost time, whatever the
  // library's search policy. In host-probe times: each call's
  // time is divided by the probe's time on the same cores around it (see
  // host_probe.hpp), which cancels most of the host's speed drift. The wall
  // time first loses the time the hypervisor stole from the call's vCPUs
  // (per core, averaged over the cores the call ran on), which the probe
  // filters out of its own time.
  const double gcells = static_cast<double>(oracle.cells) / 1e9;
  const auto join = [](const std::vector<double>& v) {
    std::ostringstream o;
    for (double x : v) o << x << ' ';
    return o.str();
  };
  std::map<std::string, std::string> info{
      {"engine", setup.engine_name},
      {"reference_gcells", std::to_string(gcells)},
      {"walls", join(wall)},
      {"running", join(running)},
      {"probes", join(probe)},
      {"setup_raw_s", join({quantile(setup_times, 0.5)})},
      {"setup_probe", join({setup_probe})},
  };
  const auto per_probe_gcell = [gcells](const std::vector<double>& v,
                                        const std::vector<double>& probes) {
    std::vector<double> r;
    for (std::size_t i = 0; i < v.size(); ++i)
      r.push_back(v[i] / probes[i] / gcells);
    return quantile(r, 0.5);
  };
  std::vector<Metric> metrics;
  if (a.trace == 0) {
    if (!wall.empty()) {
      metrics = {
          {"find_probes_per_gcell_p50", per_probe_gcell(running, probe), "probe/Gcell"},
          {"cpu_probes_per_gcell_p50", per_probe_gcell(cpu, probe), "probe/Gcell"},
          {"setup_s", setup_s, "s"},
      };
    }
    print_result(tally.failed == 0 && !wall.empty(), tally, metrics, info);
    return 0;
  }

  if (wall.empty()) {
    print_result(false, tally, metrics, info);
    return 0;
  }

  // The scalar oracle's lane cells, the unit of the per-layer
  // oracle_gcells_per_s and useful_pct; `perfbench oracle --trace 1`
  // checked its tops against the reference search's.
  const std::uint64_t scalar_cells =
      load_cached("scalar", kScalarMagic, s, a.seed).cells;
  const double oracle_gcells = static_cast<double>(scalar_cells) / 1e9;
  info["oracle_gcells"] = std::to_string(oracle_gcells);

  // Traced loop: the same calls, every engine wrapped.
  const int lanes = plain()->lanes();
  Recorder recorder(plain);
  const align::EngineFactory traced = recorder.factory();
  std::vector<TracedCall> calls;
  {
    const Clock::time_point start = Clock::now();
    do {
      TracedCall tc;
      const bool ok =
          tally.check(oracle, [&] { return call_finder(w, s, traced); }, tc.call);
      tc.logs = recorder.take();
      if (!ok) continue;
      std::vector<std::string> bad = check_counts(totals(tc, m, lanes), m);
      if (!bad.empty()) ++tally.failed;
      for (std::string& v : bad) violations.push_back(std::move(v));
      calls.push_back(std::move(tc));
    } while (seconds_between(start, Clock::now()) < a.seconds / 2);
  }
  if (calls.empty()) {
    print_result(false, tally, metrics, info);
    return 0;
  }

  // Per-layer numbers come from the traced call with the median wall time.
  std::vector<std::size_t> order(calls.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return calls[x].call.seconds() < calls[y].call.seconds();
  });
  const TracedCall& mid = calls[order[order.size() / 2]];
  const double find_s = mid.call.seconds();
  const core::FinderStats& st = mid.call.result.stats;
  const LayerTotals t = totals(mid, m, lanes);
  const double kernel_s = t.first_s + t.realign_s;

  const Replay replay = replay_tracebacks(s, oracle.tops);
  for (const std::string& v : replay.mismatches) violations.push_back(v);
  if (!replay.mismatches.empty()) ++tally.failed;

  // Lane cells of a sequential call on the same input: the base of the
  // parallel and cluster finders' extra lane work.
  double extra_cells_pct = 0.0;
  if (w.driver != Driver::kSequential) {
    const Workload seq_w{w.name, w.input, Driver::kSequential};
    Call base;
    if (tally.check(oracle, [&] { return call_finder(seq_w, s, plain); }, base))
      extra_cells_pct = pct(static_cast<double>(t.inner_cells) -
                                static_cast<double>(base.result.stats.cells),
                            static_cast<double>(base.result.stats.cells));
  }

  // Traced against untraced time, both in host-probe times, so that the
  // host's drift between the two halves of the run does not show as overhead.
  std::vector<double> traced_wall, traced_probe;
  for (const TracedCall& tc : calls) {
    traced_wall.push_back(tc.call.seconds() - tc.call.stolen_seconds);
    traced_probe.push_back(tc.call.probe_seconds);
  }
  const double untraced_norm = per_probe_gcell(running, probe);
  const bool threads = w.driver == Driver::kThreads;
  const bool ranks = w.driver == Driver::kRanks;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  metrics = {
      {"finder.find_s_p50", quantile(wall, 0.5), "s"},
      {"finder.find_s_p90", quantile(wall, 0.9), "s"},
      {"finder.cpu_s_p50", quantile(cpu, 0.5), "s"},
      {"finder.oracle_gcells_per_s", oracle_gcells / quantile(wall, 0.5), "Gcells/s"},
      {"finder.peak_rss_mib", peak_rss_mib, "MiB"},
      {"align.first_sweep_s", t.first_s, "s"},
      {"align.first_sweep_calls", d(t.first_calls), "count"},
      {"align.realign_s", t.realign_s, "s"},
      {"align.realign_calls", d(t.realign_calls), "count"},
      {"align.resumed_pct", pct(d(t.resumed_calls), d(t.realign_calls)), "%"},
      {"align.rows_resumed_pct", pct(d(t.resumed_rows), d(t.realign_rows)), "%"},
      {"align.lane_cells", d(t.inner_cells), "count"},
      {"align.rect_cells", d(t.rect), "count"},
      {"align.useful_pct", pct(d(scalar_cells), d(t.inner_cells)), "%"},
      {"align.lane_gcells_per_s", kernel_s > 0 ? d(t.inner_cells) / kernel_s / 1e9 : 0.0, "Gcells/s"},
      {"align.i8_sweeps", d(t.prec.i8_sweeps), "count"},
      {"align.i16_sweeps", d(t.prec.i16_sweeps), "count"},
      {"align.escalations", d(t.prec.escalations), "count"},
      {"align.profile_builds", d(t.prec.profile_builds), "count"},
      {"align.traceback_s", replay.seconds, "s"},
      {"align.traceback_cells", d(replay.cells), "count"},
      {"core.nonkernel_s", w.driver == Driver::kSequential ? find_s - kernel_s : 0.0, "s"},
      {"core.realignments", d(st.realignments), "count"},
      {"core.speculative", d(st.speculative), "count"},
      {"core.queue_pops", d(st.queue_pops), "count"},
      {"core.ckpt_hits", d(st.ckpt_hits), "count"},
      {"core.ckpt_misses", d(st.ckpt_misses), "count"},
      {"core.ckpt_rows_skipped_pct", pct(d(st.rows_skipped), d(st.rows_swept)), "%"},
      {"parallel.kernel_busy_pct", threads ? pct(kernel_s, kWorkers * find_s) : 0.0, "%"},
      {"parallel.idle_s", threads ? st.idle_seconds : 0.0, "s"},
      {"parallel.extra_lane_cells_pct", threads ? extra_cells_pct : 0.0, "%"},
      {"cluster.messages", ranks ? d(mid.call.cluster.messages) : 0.0, "count"},
      {"cluster.payload_words", ranks ? d(mid.call.cluster.payload_words) : 0.0, "count"},
      {"cluster.kernel_busy_pct", ranks ? pct(kernel_s, (kWorkers - 1) * find_s) : 0.0, "%"},
      {"cluster.extra_lane_cells_pct", ranks ? extra_cells_pct : 0.0, "%"},
      {"trace_overhead_pct",
       pct(per_probe_gcell(traced_wall, traced_probe) - untraced_norm, untraced_norm),
       "%"},
  };
  for (const std::string& v : violations)
    std::cerr << "perfbench: check failed: " << v << '\n';

  const std::filesystem::path trace_path =
      std::filesystem::path(".bench_out") /
      ("trace-" + std::string(w.name) + "-s" + std::to_string(a.seed) + ".json");
  write_trace(trace_path, w, a.seed, epoch, calls, replay);
  info["trace"] = trace_path.string();
  info["traced_calls"] = std::to_string(calls.size());
  print_result(tally.failed == 0 && violations.empty(), tally, metrics, info);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args a = perfbench::parse_args(argc, argv);
    return a.command == "oracle" ? perfbench::cmd_oracle(a) : perfbench::cmd_run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
