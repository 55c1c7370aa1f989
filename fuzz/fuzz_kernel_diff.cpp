// Differential kernel fuzz target — the fuzzing counterpart of
// core_equivalence_test.
//
// From the input bytes it builds a small DNA sequence and a set of override
// bits, then for every split r checks that
//
//   * the scalar engine (reference), the striped scalar engine with a tiny
//     stripe, and the portable SIMD engines (8 x i16 lanes, 4 x i32 lanes)
//     produce bit-identical bottom rows, and
//   * resuming the scalar engine from any checkpoint row it emitted
//     reproduces the fresh bottom row exactly (§3 checkpoint-resume
//     bit-identity), and
//   * the adaptive engines (auto and auto-generic), sweeping whole groups
//     through a checkpoint sink, give the scalar bottom rows — also when
//     resumed from any row they staged. Byte 1 can pick a uniform DNA
//     scoring with a large match score, so the u8 pass saturates within
//     m <= 34 and the group finishes in i16 from its last certified row
//     (the precision ladder).
//   * the adaptive engines, sweeping every group in ascending order under
//     the empty triangle as the finder's first sweep does (so each group
//     after the first takes the band path over its predecessor's last
//     rectangle), give the scalar empty-triangle rows and stage the bytes a
//     fresh engine stages for the same groups in descending order (where
//     every full group seeds and none bands).
//
// Any divergence throws; the driver reports it with the reproducing input.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/engine.hpp"
#include "align/engine_detail.hpp"
#include "align/override_triangle.hpp"
#include "align/types.hpp"
#include "seq/scoring.hpp"

namespace {

using repro::align::CheckpointSink;
using repro::align::CheckpointView;
using repro::align::EngineKind;
using repro::align::GroupJob;
using repro::align::Score;

[[noreturn]] void finding(const std::string& what) {
  throw std::runtime_error("kernel diff: " + what);
}

void compare_rows(const std::vector<Score>& ref, const std::vector<Score>& got,
                  const std::string& label, int r) {
  if (ref.size() != got.size())
    finding(label + ": row size differs at r=" + std::to_string(r));
  for (std::size_t x = 0; x < ref.size(); ++x)
    if (ref[x] != got[x])
      finding(label + ": H[" + std::to_string(x) + "] differs at r=" +
              std::to_string(r) + " (" + std::to_string(ref[x]) + " vs " +
              std::to_string(got[x]) + ")");
}

CheckpointView view_of(const CheckpointSink& sink, int t) {
  const auto& cr = sink.rows[static_cast<std::size_t>(t)];
  CheckpointView view;
  view.row = cr.row;
  view.lanes = sink.lanes;
  view.elem_size = sink.elem_size;
  view.h = cr.h.data();
  view.max_y = cr.max_y.data();
  view.bytes = cr.h.size();
  return view;
}

// Sweeps every group of `engine` (r0 = 1, 1 + L, ...) through a sink, then
// resumes each group from every row it staged; all rows must match `ref`.
void check_groups(repro::align::Engine& engine, const std::string& label,
                  const GroupJob& base, int stride,
                  const std::vector<std::vector<Score>>& ref) {
  const int m = static_cast<int>(base.seq.size());
  const int lanes = engine.lanes();
  for (int r0 = 1; r0 < m; r0 += lanes) {
    const int count = std::min(lanes, m - r0);
    std::vector<std::vector<Score>> rows;
    std::vector<std::span<Score>> outs;
    for (int k = 0; k < count; ++k)
      rows.emplace_back(static_cast<std::size_t>(m - r0 - k));
    for (auto& row : rows) outs.emplace_back(row);
    GroupJob job = base;
    job.r0 = r0;
    job.count = count;
    CheckpointSink sink;
    sink.stride = stride;
    sink.top_row = r0 - 1;
    job.sink = &sink;
    const auto check = [&](const std::string& what) {
      for (int k = 0; k < count; ++k)
        compare_rows(ref[static_cast<std::size_t>(r0 + k)],
                     rows[static_cast<std::size_t>(k)], label + what, r0 + k);
    };
    engine.align(job, outs);
    check("");
    job.sink = nullptr;
    for (int t = 0; t < sink.count; ++t) {
      const CheckpointView view = view_of(sink, t);
      job.resume = &view;
      engine.align(job, outs);
      check(" resume@" + std::to_string(view.row));
    }
  }
}

// Sweeps every group of `make()`'s engine in ascending order, then on a
// fresh engine in descending order (no group follows its predecessor, so
// each full group seeds: it sweeps whole and reuses nothing), both
// under the empty triangle through a sink; rows must match `ref` and the
// staged rows must be identical.
template <class Make>
void check_ascending(const Make& make, const std::string& label,
                     const GroupJob& base, int stride,
                     const std::vector<std::vector<Score>>& ref) {
  const auto band = make();
  const auto fresh = make();
  const int m = static_cast<int>(base.seq.size());
  const int lanes = band->lanes();
  struct Group {
    std::vector<std::vector<Score>> rows;
    CheckpointSink sink;
  };
  const auto sweep = [&](repro::align::Engine& engine, int r0) {
    Group g;
    GroupJob job = base;
    job.r0 = r0;
    job.count = std::min(lanes, m - r0);
    std::vector<std::span<Score>> outs;
    for (int k = 0; k < job.count; ++k)
      g.rows.emplace_back(static_cast<std::size_t>(m - r0 - k));
    for (auto& row : g.rows) outs.emplace_back(row);
    g.sink.stride = stride;
    g.sink.top_row = r0 - 1;
    job.sink = &g.sink;
    engine.align(job, outs);
    return g;
  };
  std::vector<int> r0s;
  for (int r0 = 1; r0 < m; r0 += lanes) r0s.push_back(r0);
  std::vector<Group> up;
  for (const int r0 : r0s) up.push_back(sweep(*band, r0));
  for (std::size_t g = r0s.size(); g-- > 0;) {
    const Group down = sweep(*fresh, r0s[g]);
    const int r0 = r0s[g];
    for (std::size_t k = 0; k < up[g].rows.size(); ++k)
      compare_rows(ref[static_cast<std::size_t>(r0) + k], up[g].rows[k],
                   label + " ascending", r0 + static_cast<int>(k));
    const CheckpointSink& a = up[g].sink;
    bool same = a.count == down.sink.count &&
                a.elem_size == down.sink.elem_size;
    for (int t = 0; same && t < a.count; ++t) {
      const auto& x = a.rows[static_cast<std::size_t>(t)];
      const auto& y = down.sink.rows[static_cast<std::size_t>(t)];
      same = x.row == y.row && x.h == y.h && x.max_y == y.max_y;
    }
    if (!same)
      finding(label + " ascending: staged rows differ at r0=" +
              std::to_string(r0));
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 4) return 0;
  // Byte 0: sequence length m in [3, 34]. Byte 1: checkpoint stride seed
  // (mod 5) and scoring (/ 5 mod 4: paper_example, or match 20 / 40 / 60
  // against mismatch -match/2 — u8 limits 225 / 195 / 165). Bytes then
  // alternate: residue stream (2 bits each), then override pairs.
  const int m = 3 + static_cast<int>(data[0] % 32);
  const int stride = 1 + static_cast<int>(data[1] % 5);
  const int match = 20 * (data[1] / 5 % 4);
  std::vector<std::uint8_t> seq(static_cast<std::size_t>(m));
  std::size_t p = 2;
  for (int i = 0; i < m; ++i) {
    seq[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((data[p % size] >> ((i % 4) * 2)) & 3);
    if (i % 4 == 3) ++p;
  }

  repro::align::OverrideTriangle tri(m);
  for (; p + 1 < size; p += 2) {
    const int i = static_cast<int>(data[p]) % (m - 1);
    const int j = i + 1 + static_cast<int>(data[p + 1]) % (m - 1 - i);
    tri.set(i, j);
  }

  const repro::seq::Scoring scoring =
      match == 0 ? repro::seq::Scoring::paper_example()
                 : repro::seq::Scoring{repro::seq::ScoreMatrix::uniform(
                                           repro::seq::Alphabet::dna(), match,
                                           -match / 2),
                                       repro::seq::GapPenalty{2, 1}};
  const auto scalar = repro::align::make_engine(
      repro::align::EngineKind::kScalar);
  // Stripe width 3 forces many stripe boundaries even on tiny rectangles.
  const auto striped = repro::align::detail::make_scalar_striped_engine(3);
  const auto simd8 = repro::align::detail::make_simd_generic_engine(8);
  const auto simd4x32 = repro::align::make_engine(
      repro::align::EngineKind::kSimd4x32Generic);

  GroupJob base;
  base.seq = seq;
  base.scoring = &scoring;
  base.overrides = &tri;
  std::vector<std::vector<Score>> refs(static_cast<std::size_t>(m));
  std::vector<std::vector<Score>> plain_refs(static_cast<std::size_t>(m));
  for (int r = 1; r < m; ++r) {
    GroupJob job = base;
    job.r0 = r;
    job.count = 1;
    GroupJob plain = job;
    plain.overrides = nullptr;
    plain_refs[static_cast<std::size_t>(r)] = scalar->align_one(plain);

    CheckpointSink sink;
    sink.stride = stride;
    sink.top_row = r - 1;
    GroupJob fresh = job;
    fresh.sink = &sink;
    const auto& ref = refs[static_cast<std::size_t>(r)] =
        scalar->align_one(fresh);

    compare_rows(ref, striped->align_one(job), "striped", r);
    compare_rows(ref, simd8->align_one(job), "simd8generic", r);
    compare_rows(ref, simd4x32->align_one(job), "simd4x32generic", r);

    // Resume from every emitted checkpoint row strictly above the bottom row
    // and demand the identical bottom row (§3 bit-identity on resume).
    for (int t = 0; t < sink.count; ++t) {
      const CheckpointView view = view_of(sink, t);
      if (view.row >= r) continue;
      GroupJob resumed = job;
      resumed.resume = &view;
      compare_rows(ref, scalar->align_one(resumed),
                   "resume@" + std::to_string(view.row), r);
    }
  }

  const auto autobest = repro::align::make_engine(EngineKind::kSimdAuto);
  const auto autogen = repro::align::detail::make_adaptive_generic_engine();
  check_groups(*autobest, "auto", base, stride, refs);
  check_groups(*autogen, "auto-generic", base, stride, refs);

  GroupJob first = base;
  first.overrides = nullptr;
  check_ascending([] { return repro::align::make_engine(EngineKind::kSimdAuto); },
                  "auto", first, stride, plain_refs);
  check_ascending(
      [] { return repro::align::detail::make_adaptive_generic_engine(); },
      "auto-generic", first, stride, plain_refs);
  return 0;
}
