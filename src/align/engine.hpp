// Score-only alignment engines.
//
// Engines compute the bottom rows of one *group* of neighbouring rectangles
// (paper §4.1: SIMD engines process 4/8/16 consecutive splits in one
// interleaved sweep; scalar engines process one). The finder layers —
// sequential, shared-memory, distributed — are all written against this
// interface.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "align/types.hpp"

namespace repro::align {

/// Element precision a kernel computes in. Saturating precisions (i8, i16)
/// clamp at their ceiling and detect the clamp per sweep; i32 is effectively
/// unbounded for realistic inputs. Adaptive engines start every group at i8
/// and escalate to i16 when the saturation guard fires.
enum class Precision { kI8, kI16, kI32, kAdaptive };

/// Adaptive-precision and query-profile activity since engine construction
/// (all zero for engines without SIMD profiles). An escalated group's first
/// alignment is one u8 sweep, stopped at its first saturating row, finished
/// by one i16 sweep, so i8_sweeps + i16_sweeps >= the group alignments
/// performed, with equality only when nothing escalated.
struct PrecisionStats {
  std::uint64_t i8_sweeps = 0;        ///< group sweeps run in u8 lanes
  std::uint64_t i16_sweeps = 0;       ///< group sweeps run in i16 lanes
  std::uint64_t escalations = 0;      ///< i8 sweeps finished at i16 (sticky)
  std::uint64_t profile_hits = 0;     ///< sweeps served by a cached profile
  std::uint64_t profile_builds = 0;   ///< query profiles (re)built
  /// Lane cells of first-sweep groups taken from the previous group's last
  /// rectangle instead of computed (the band sweep; simd_kernel.hpp).
  std::uint64_t cells_reused = 0;

  PrecisionStats& operator+=(const PrecisionStats& o) {
    i8_sweeps += o.i8_sweeps;
    i16_sweeps += o.i16_sweeps;
    escalations += o.escalations;
    profile_hits += o.profile_hits;
    profile_builds += o.profile_builds;
    cells_reused += o.cells_reused;
    return *this;
  }
  /// The activity between two snapshots of one engine.
  friend PrecisionStats operator-(PrecisionStats a, const PrecisionStats& b) {
    a.i8_sweeps -= b.i8_sweeps;
    a.i16_sweeps -= b.i16_sweeps;
    a.escalations -= b.escalations;
    a.profile_hits -= b.profile_hits;
    a.profile_builds -= b.profile_builds;
    a.cells_reused -= b.cells_reused;
    return a;
  }
};

class Engine {
 public:
  virtual ~Engine() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Lanes per group; the finder schedules groups of exactly this many
  /// consecutive splits (the last group of a sequence may be partial).
  [[nodiscard]] virtual int lanes() const = 0;

  /// True when do_align honours GroupJob::resume / GroupJob::sink
  /// (checkpoint-resume realignment). Engines that ignore those fields are
  /// still correct — they always sweep from row 1 — but callers should not
  /// offer them resume state, and the wrapper gives them no cell discount.
  [[nodiscard]] virtual bool supports_checkpoints() const { return false; }

  /// False when first sweeps of a length-m sequence never band on this
  /// engine (no group reuses the adjacent group's work), so drivers deal
  /// first-sweep groups in order rather than in runs (core/search.hpp).
  /// True by default, so a wrapper keeps its inner engine's runs.
  [[nodiscard]] virtual bool bands(int /*m*/) const { return true; }

  /// Computes bottom rows for splits job.r0 .. job.r0+job.count-1.
  /// out[k] must have exactly m - (job.r0 + k) elements. Non-virtual: the
  /// wrapper centralizes the cell accounting (identical for every
  /// engine: lanes x rows x columns per group), so kernels never touch
  /// counters.
  void align(const GroupJob& job, std::span<const std::span<Score>> out);

  /// Convenience wrapper for single-rectangle use (tests, traceback prep).
  std::vector<Score> align_one(const GroupJob& job);

  /// Lane cells of the requested rectangles since construction: lanes x
  /// rows x columns per group, less the rows a checkpoint resume restored
  /// (the quantity behind the paper's "more than a billion matrix entries
  /// per second"). A band sweep takes some of them from the previous
  /// group's last rectangle instead of computing them; precision_stats()
  /// counts those as cells_reused. Engines are single-threaded, so this is
  /// a plain integer.
  [[nodiscard]] std::uint64_t cells_computed() const { return cells_; }

  /// Adaptive-precision / query-profile counters (zeros for engines without
  /// SIMD profiles). Escalated groups are swept partly at both precisions,
  /// so the per-group cell accounting above undercounts their first
  /// alignment; these counters make that visible.
  [[nodiscard]] virtual PrecisionStats precision_stats() const { return {}; }

  void reset_counters() { cells_ = 0; }

 protected:
  /// Engine kernel: computes the bottom rows. Implementations validate the
  /// job themselves (validate_job) and do no accounting.
  virtual void do_align(const GroupJob& job,
                        std::span<const std::span<Score>> out) = 0;

 private:
  std::uint64_t cells_ = 0;
};

/// One computation each: the recurrence, the group width and the lane
/// element width. make_engine runs a kind on the widest ISA this build and
/// CPU support and falls back to portable generic lanes; the engine's
/// name() says which ISA it got.
enum class EngineKind {
  kScalar,          ///< Fig. 3 recurrence, row-major, O(1)/cell
  kScalarStriped,   ///< scalar + cache-aware vertical striping (§4.1)
  kGeneralGap,      ///< Eq. 1 by explicit row/column scans, O(n)/cell — the
                    ///< per-cell cost model of the old (1993) algorithm
  kSimd4,           ///< 4 x i16 lanes (paper: Pentium III SSE)
  kSimd8,           ///< 8 x i16 lanes (paper: Pentium 4 SSE2)
  kSimd16,          ///< 16 x i16 lanes (AVX2; the paper's natural successor)
  kSimd8x32,        ///< 8 x i32 lanes — no saturation limit
  kSimd4x32Generic, ///< 4 x i32 portable lanes (the i32 reference)
  kSimdAuto         ///< adaptive u8 -> i16 (the default)
};

/// Creates an engine of `kind` on the widest ISA available (see EngineKind).
std::unique_ptr<Engine> make_engine(EngineKind kind);

/// Factory for per-thread / per-rank engines (engines are not thread-safe;
/// every parallel worker owns one).
using EngineFactory = std::function<std::unique_ptr<Engine>()>;

/// Factory producing make_engine(kind) instances.
EngineFactory engine_factory(EngineKind kind);

/// True when the AVX2 kernels can run on this CPU and build.
bool avx2_available();

/// True when a sequence of length m under `scoring` provably cannot reach
/// `precision`'s saturation certification limit: the all-match score of the
/// largest rectangle — min(r, m-r) pairs at matrix.max_score(), maximized at
/// r = m/2 — stays at or below the limit. The i16 limit is 32766 (a peak of
/// exactly 32767 is indistinguishable from a clamped add, so the kernels
/// treat it as saturated); the u8 limit is 255 - bias - max_score, with
/// bias = max(0, -matrix.min_score()) — the headroom one biased profile add
/// needs. u8 additionally requires the biased profile entries and both gap
/// penalties to fit in a byte. kI32/kAdaptive always fit.
bool precision_fits(Precision precision, int m, const seq::Scoring& scoring);

}  // namespace repro::align
