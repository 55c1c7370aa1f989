// Coarse-grained SIMD alignment kernel (paper §4.1, Figs. 6 & 7).
//
// One sweep computes `count` *neighbouring* rectangles — splits r0, r0+1,
// ..., r0+count-1 — in up to L lanes. The element type is a template
// parameter of the Ops policy: saturating i16 (the paper's width),
// saturating unsigned-biased u8 (double the lanes per register), or plain
// i32 (no saturation limit):
//
//   * Columns are indexed by global suffix position j in [r0, m); lane k
//     (split rk = r0+k) is valid for j >= rk, i.e. column c = j - r0 >= k.
//     The first count-1 columns therefore carry per-lane masks; forcing
//     H = 0 in a lane's invalid columns reproduces that lane's true left
//     boundary exactly (local-alignment scores are clamped at zero, so the
//     only contamination paths — gap maxima fed from masked cells — are
//     strictly negative and never win). This is the paper's "corrections for
//     the left and bottom borders".
//   * Cell (row y, column j) aligns the pair (i, j) = (y-1, j) in *every*
//     lane, so a single query-profile entry is broadcast to all lanes and
//     a single override-triangle bit zeroes all lanes at once. In rows
//     deeper than a lane's rectangle the pair degenerates to i >= j; those
//     lane-cells are garbage that is never extracted, and the override test
//     is skipped there (the triangle is a strict upper triangle).
//   * Rows are swept to rows = r0+count-1; lane k's bottom row is extracted
//     when y == rk.
//   * Matrix state is interleaved in memory (Fig. 7): entry (c, k) lives at
//     index c*L + k, so one aligned vector load fetches one column of all
//     lanes.
//   * Whole rows: every row is swept over all its columns in one pass, so
//     no per-row state crosses a column boundary. The paper's cache-aware
//     vertical striping (§4.1) was neutral or slower for these kernels on
//     current caches (EXPERIMENTS.md §5.1); only the scalar cache-aware
//     engine keeps it, as the §5.1 ablation.
//   * Branch-free column loops: each loop is compiled per case (border
//     columns c < count-1 or not, overridden column or not, deep row or
//     not), so the hot loop tests nothing. A row with override bits is cut
//     at its overridden columns; only those single columns run the loop
//     that tests the bits.
//   * Register blocking: every row above r0 that emits no checkpoint is
//     swept together with the row below it. Row y's H and MaxY stay in
//     registers and feed row y+1, so only row y+1's state goes to memory.
//     An Ops whose vector spans several registers (the double-pumped i16
//     kernel) is swept one register-sized part at a time, so a row pair's
//     live vectors still fit the register file.
//   * Saturation safety: a running per-lane peak (masked so garbage
//     lane-cells cannot contribute) certifies the sweep. A sweep is clean
//     when the peak stays at or below the element type's certification
//     limit — the largest value from which one more profile add provably
//     cannot saturate (i16: 32766; u8: 255 - bias - max_score). The peak
//     is tested after every row (or row pair) and the sweep stops at the
//     first one past the limit: the peak only grows, so that row decides
//     what an end-of-sweep test would, and every row above it is exact.
//     The caller either throws or finishes the same sweep at a wider
//     precision from the deepest certified row state (adaptive engines).
//     Widening that state is exact too: certified u8 H is the true H, and
//     u8 MaxY (clamped at 0) still satisfies the invariant below, which
//     i16 arithmetic preserves — so H, and every bottom row, match a sweep
//     run wide from row 1; only MaxY entries clamped below zero differ.
//   * Unsigned u8 lanes (Farrar/SSW-style): profile entries carry
//     bias = max(0, -min_score()), the H update is
//     subs(adds(inner, e_biased), bias) = max(0, inner + score), and gap
//     maxima clamp at 0 instead of running to -inf. This is lossless:
//     inner = max(mx, my, diag) with diag >= 0 (a previous H or the zero
//     boundary), and each clamped gap chain X satisfies
//     X_true <= X_clamped <= max(X_true, 0) inductively (the update
//     X' = max(gap_start, X) - e preserves it, and gap_start >= its true
//     value by the same invariant on diag-fed starts) — so whenever a
//     clamped term wins the inner max it equals a value >= 0 that the true
//     recurrence also produces, and H trajectories are identical as long as
//     no adds saturates, which the peak certification guarantees. (The
//     induction uses only diag >= 0 and the update's monotonicity, not the
//     clamp, so a clamped X carried on in i16 lanes keeps the invariant.)
//   * Band rows (u8 first sweeps, driven by AdaptiveEngineT): group r0 run
//     right after group r0 - L differs from that group's last rectangle
//     (split r0 - 1, the reference) only near its left border. The
//     reference's u8 state (H, MaxX, MaxY) is kept per cell on a BandGrid.
//     Rows y < r0 are swept from column 0, compared with the reference from
//     the first unmasked column on, and stop at the first column c >=
//     count - 1 past the row above's last change (the last column where its
//     H or MaxY differs) whose H, MaxX and MaxY equal the reference's in
//     every lane. That is exact: from c + 1 on, every input of the cell
//     recurrence (the diagonal and MaxY from the row above, MaxX from the
//     left, the profile entry, and no mask) is the reference's, and the
//     clamped u8 recurrence is a function of its inputs, so every lane
//     computes the reference's state to the end of the row. The skipped
//     cells hold values the reference's certified sweep had, so they cannot
//     move the saturation peak past the limit, and the sweep stops at the
//     same row and certifies the same way as a full sweep. Columns past a
//     row's stop are read as a broadcast of the reference (by the row
//     below, by row r0 and by emitted checkpoint rows). Rows y >= r0 are
//     new to the reference and hold the bottom rows: they are swept whole.
//     The last lane, the next group's reference, is written back wherever
//     the next group will read it.
//
// The kernel is templated over an Ops policy (SSE2, AVX2, or a portable
// scalar-lane fallback) providing saturating adds/subs, max, and masking.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "align/engine_detail.hpp"
#include "align/override_triangle.hpp"
#include "align/query_profile.hpp"
#include "align/types.hpp"
#include "check/contracts.hpp"
#include "util/aligned.hpp"

namespace repro::align::detail {

/// Portable lane ops; the compiler is free to auto-vectorize these loops
/// (the paper's remark that vectorizing compilers can handle data-independent
/// lanes). Also used to cross-check the intrinsic engines in tests.
template <int W>
struct GenericOps {
  static constexpr int kLanes = W;
  using Elem = std::int16_t;
  static constexpr bool kSaturating = true;
  struct Vec {
    std::int16_t v[W];
  };

  static Vec zero() {
    Vec r{};
    return r;
  }
  static Vec set1(std::int16_t x) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = x;
    return r;
  }
  static Vec load(const std::int16_t* p) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = p[k];
    return r;
  }
  static void store(std::int16_t* p, Vec a) {
    for (int k = 0; k < W; ++k) p[k] = a.v[k];
  }
  static Vec max(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] > b.v[k] ? a.v[k] : b.v[k];
    return r;
  }
  static Vec adds(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) {
      const int s = int{a.v[k]} + int{b.v[k]};
      r.v[k] = static_cast<std::int16_t>(std::clamp(s, -32768, 32767));
    }
    return r;
  }
  static Vec subs(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) {
      const int s = int{a.v[k]} - int{b.v[k]};
      r.v[k] = static_cast<std::int16_t>(std::clamp(s, -32768, 32767));
    }
    return r;
  }
  static Vec and_(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k)
      r.v[k] = static_cast<std::int16_t>(a.v[k] & b.v[k]);
    return r;
  }
};

/// Portable 32-bit lane ops: plain (non-saturating) arithmetic; scores are
/// bounded well inside i32 so wrapping cannot occur (the max local-alignment
/// score is max_exchange x min(rows, cols) < 2^24 at any realistic scale).
template <int W>
struct GenericOps32 {
  static constexpr int kLanes = W;
  using Elem = align::Score;
  static constexpr bool kSaturating = false;
  struct Vec {
    align::Score v[W];
  };

  static Vec zero() {
    Vec r{};
    return r;
  }
  static Vec set1(align::Score x) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = x;
    return r;
  }
  static Vec load(const align::Score* p) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = p[k];
    return r;
  }
  static void store(align::Score* p, Vec a) {
    for (int k = 0; k < W; ++k) p[k] = a.v[k];
  }
  static Vec max(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] > b.v[k] ? a.v[k] : b.v[k];
    return r;
  }
  static Vec adds(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] + b.v[k];
    return r;
  }
  static Vec subs(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] - b.v[k];
    return r;
  }
  static Vec and_(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] & b.v[k];
    return r;
  }
};

/// Portable unsigned u8 lane ops: saturating-unsigned arithmetic over biased
/// profile entries (see the header comment). Twice the lanes of GenericOps
/// in the same register width; adds clamps at 255, subs clamps at 0.
template <int W>
struct GenericOps8 {
  static constexpr int kLanes = W;
  using Elem = std::uint8_t;
  static constexpr bool kSaturating = true;
  struct Vec {
    std::uint8_t v[W];
  };

  static Vec zero() {
    Vec r{};
    return r;
  }
  static Vec set1(std::uint8_t x) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = x;
    return r;
  }
  static Vec load(const std::uint8_t* p) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = p[k];
    return r;
  }
  static void store(std::uint8_t* p, Vec a) {
    for (int k = 0; k < W; ++k) p[k] = a.v[k];
  }
  static Vec max(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] > b.v[k] ? a.v[k] : b.v[k];
    return r;
  }
  static Vec adds(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) {
      const int s = int{a.v[k]} + int{b.v[k]};
      r.v[k] = static_cast<std::uint8_t>(s > 255 ? 255 : s);
    }
    return r;
  }
  static Vec subs(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) {
      const int s = int{a.v[k]} - int{b.v[k]};
      r.v[k] = static_cast<std::uint8_t>(s < 0 ? 0 : s);
    }
    return r;
  }
  static Vec and_(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k)
      r.v[k] = static_cast<std::uint8_t>(a.v[k] & b.v[k]);
    return r;
  }
  static bool all_eq(Vec a, Vec b) {
    for (int k = 0; k < W; ++k)
      if (a.v[k] != b.v[k]) return false;
    return true;
  }
};

/// Scratch buffers reused across group alignments (one instance per engine;
/// engines are single-threaded by contract).
template <typename Elem>
struct SimdScratchT {
  static_assert(std::is_integral_v<Elem> &&
                    (sizeof(Elem) == 1 || sizeof(Elem) == 2 ||
                     sizeof(Elem) == 4),
                "SIMD scratch elements are u8, i16, or i32");
  // The AVX2 kernels (16 x i16 and 32 x u8) issue 32-byte aligned loads on
  // these rows; AlignedAllocator's cache-line alignment must cover that.
  static_assert(util::kCacheLine % 32 == 0,
                "scratch rows must satisfy 32-byte AVX2 vector loads");
  std::vector<Elem, util::AlignedAllocator<Elem>> h;
  std::vector<Elem, util::AlignedAllocator<Elem>> max_y;
  /// Every column's MaxX after a row, kept only by band sweeps.
  std::vector<Elem, util::AlignedAllocator<Elem>> max_x;
};

/// resize() that never shrinks: steady-state sweeps reuse capacity, and the
/// slack past the live size is never read.
template <typename V>
inline void grow_to(V& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

/// "Minus infinity" for the element type (i16 lanes rely on saturation).
/// Unsigned lanes have no negatives: their gap maxima clamp at 0, which the
/// header comment's invariant shows is lossless.
template <typename Elem>
constexpr Elem neg_inf_of() {
  if constexpr (!std::is_signed_v<Elem>) {
    return 0;
  } else if constexpr (sizeof(Elem) == 2) {
    return kNegInf16;
  } else {
    return kNegInf;
  }
}

/// The register-sized ops the column loops run on: Ops itself, or Ops::Part
/// for an Ops whose lane vector spans several registers (see run_simd_group).
template <class Ops, class = void>
struct PartOf {
  using type = Ops;
};
template <class Ops>
struct PartOf<Ops, std::void_t<typename Ops::Part>> {
  using type = typename Ops::Part;
};

/// Per-sweep invariants shared by the column loops: the broadcast constants
/// and the state pointers. The loops take it by value, so a u8 store (which
/// may alias anything) cannot force a reload of a constant or a pointer.
template <class Ops>
struct SweepConsts {
  using Vec = typename Ops::Vec;
  using Elem = typename Ops::Elem;
  Vec open, ext, zero, bias;
  Elem* h;              ///< this part's lanes of the H state at column 0
  Elem* max_y;          ///< the same for the MaxY state
  Elem* max_x;          ///< the same for the kept MaxX (band sweeps only)
  const Elem* colmask;  ///< the same for the colmask table
  std::size_t stride;   ///< elements per column in all three (the group's L)
  int r0;
};

/// One DP row y = i + 1 as the column loops see it.
template <class Ops>
struct SweepRow {
  const typename Ops::Elem* score;          ///< profile of seq[i], column 0 on
  const std::atomic<std::uint64_t>* obits;  ///< row i's override bits or null
  int i;
};

/// The cell update, all lanes at once: H of column c from the diagonal H,
/// the row's running MaxX `mx` and the column's MaxY `my` (both advanced
/// past the cell), then the override, border-mask and saturation-peak steps
/// the flags select. kDeep marks rows below r0: their lane-cells with i >= j
/// have no override bit, and garbage lane-cells must not feed the peak.
template <class Ops, bool kMask, bool kOverride, bool kDeep>
[[gnu::always_inline]] inline typename Ops::Vec dp_cell(
    const SweepConsts<Ops>& s, const SweepRow<Ops>& row, int c,
    typename Ops::Vec diag, typename Ops::Vec& mx, typename Ops::Vec& my,
    typename Ops::Vec& peak, typename Ops::Vec peak_mask) {
  using Vec = typename Ops::Vec;
  const Vec inner = Ops::max(mx, Ops::max(my, diag));
  const Vec e = Ops::set1(row.score[c]);
  Vec h;
  if constexpr (std::is_signed_v<typename Ops::Elem>) {
    h = Ops::max(s.zero, Ops::adds(e, inner));
  } else {
    // inner >= 0 and the profile entry carries the bias, so
    // subs(adds(inner, e+bias), bias) = max(0, inner + score) exactly
    // whenever adds does not saturate (certified by the peak).
    h = Ops::subs(Ops::adds(inner, e), s.bias);
  }
  if constexpr (kOverride) {
    const int j = s.r0 + c;
    if ((!kDeep || j > row.i) && override_bit(row.obits, row.i, j))
      h = s.zero;
  }
  if constexpr (kMask)
    h = Ops::and_(h, Ops::load(s.colmask + static_cast<std::size_t>(c) *
                                               s.stride));
  if constexpr (Ops::kSaturating) {
    if constexpr (kDeep) {
      peak = Ops::max(peak, Ops::and_(h, peak_mask));
    } else {
      peak = Ops::max(peak, h);
    }
  }
  const Vec gap_start = Ops::subs(diag, s.open);
  mx = Ops::subs(Ops::max(gap_start, mx), s.ext);
  my = Ops::subs(Ops::max(gap_start, my), s.ext);
  return h;
}

/// Sweeps one DP row over columns [ca, cb); `diag` (H up-left of column ca)
/// and `mx` carry across calls.
template <class Ops, bool kMask, bool kOverride, bool kDeep>
void sweep_row(const SweepConsts<Ops> s, const SweepRow<Ops> row, int ca,
               int cb, typename Ops::Vec& diag, typename Ops::Vec& mx,
               typename Ops::Vec& peak, const typename Ops::Vec peak_mask) {
  using Vec = typename Ops::Vec;
  Vec d = diag;
  Vec x = mx;
  Vec p = peak;
  for (int c = ca; c < cb; ++c) {
    auto* hp = s.h + static_cast<std::size_t>(c) * s.stride;
    auto* myp = s.max_y + static_cast<std::size_t>(c) * s.stride;
    const Vec up = Ops::load(hp);
    Vec my = Ops::load(myp);
    Ops::store(hp, dp_cell<Ops, kMask, kOverride, kDeep>(s, row, c, d, x, my,
                                                         p, peak_mask));
    Ops::store(myp, my);
    d = up;
  }
  diag = d;
  mx = x;
  peak = p;
}

/// Sweeps DP rows y = a.i + 1 and y + 1 together over columns [ca, cb): the
/// register-blocked pass. Row y's H and MaxY stay in registers and feed row
/// y + 1 directly, so one load and one store per state vector serve two
/// rows. `diag_b` ends as row y's H at column cb - 1. Both rows lie at or
/// above r0, so neither is deep.
template <class Ops, bool kMask, bool kOverA, bool kOverB>
void sweep_pair(const SweepConsts<Ops> s, const SweepRow<Ops> a,
                const SweepRow<Ops> b, int ca, int cb,
                typename Ops::Vec& diag_a, typename Ops::Vec& diag_b,
                typename Ops::Vec& mx_a, typename Ops::Vec& mx_b,
                typename Ops::Vec& peak) {
  using Vec = typename Ops::Vec;
  Vec da = diag_a;
  Vec db = diag_b;
  Vec xa = mx_a;
  Vec xb = mx_b;
  Vec p = peak;
  for (int c = ca; c < cb; ++c) {
    auto* hp = s.h + static_cast<std::size_t>(c) * s.stride;
    auto* myp = s.max_y + static_cast<std::size_t>(c) * s.stride;
    const Vec up = Ops::load(hp);
    Vec my = Ops::load(myp);
    const Vec ha =
        dp_cell<Ops, kMask, kOverA, false>(s, a, c, da, xa, my, p, s.zero);
    Ops::store(hp, dp_cell<Ops, kMask, kOverB, false>(s, b, c, db, xb, my, p,
                                                      s.zero));
    Ops::store(myp, my);
    da = up;
    db = ha;
  }
  diag_a = da;
  diag_b = db;
  mx_a = xa;
  mx_b = xb;
  peak = p;
}

/// The reference of a band sweep (see "Band rows"): the u8 state (H, MaxX,
/// MaxY) that the previous group's last rectangle left in every cell it
/// covers, one plane each of m(m-1)/2 cells, row-major over the upper
/// triangle (DP row y holds global columns j = y .. m-1). The engine owns
/// the planes; run_simd_group reads and rewrites them.
struct BandGrid {
  std::uint8_t* h = nullptr;
  std::uint8_t* mx = nullptr;
  std::uint8_t* my = nullptr;
  /// No reference yet: sweep the rows above r0 whole and write them.
  bool seed = false;
  /// Write the group's last lane back as the next group's reference (a full
  /// group only).
  bool write = false;
  /// Lane cells the sweep took from the reference instead of computing.
  std::uint64_t cells_reused = 0;

  [[nodiscard]] static std::size_t cells(int m) {
    return static_cast<std::size_t>(m) * static_cast<std::size_t>(m - 1) / 2;
  }
  /// Index of cell (y, r0): column c of a group at r0 is entry `at + c`.
  /// Not below 0, since every row before y holds at least one cell.
  [[nodiscard]] static std::size_t at(int m, int y, int r0) {
    const auto yy = static_cast<std::size_t>(y);
    return (yy - 1) * static_cast<std::size_t>(m) - (yy - 1) * yy / 2 +
           static_cast<std::size_t>(r0) - yy;
  }
};

/// One reference row as a band row loop sees it, each pointer at column 0 of
/// the group: the row above (a broadcast source for columns the sweep left
/// to the reference) and the row itself (what the stop test compares).
struct BandRow {
  const std::uint8_t* up_h;
  const std::uint8_t* up_my;
  const std::uint8_t* h;
  const std::uint8_t* mx;
  const std::uint8_t* my;
};

/// Sweeps DP row `row` over columns [ca, cb) like sweep_row (no overrides)
/// and also keeps each column's MaxX. kGrid reads the row above from the
/// reference, broadcast to every lane, instead of from memory. kTest
/// compares every column with the reference: `changed` becomes the last
/// one whose H or MaxY differs in some lane, and the sweep stops after the
/// first column from `from` on whose (H, MaxX, MaxY) equals the reference in
/// every lane and returns it; the result is cb when no column does.
template <class Ops, bool kMask, bool kDeep, bool kGrid, bool kTest>
int sweep_keep(const SweepConsts<Ops> s, const SweepRow<Ops> row,
               const BandRow b, int ca, int cb, typename Ops::Vec& diag,
               typename Ops::Vec& mx, typename Ops::Vec& peak,
               const typename Ops::Vec peak_mask, int from = 0,
               int* changed = nullptr) {
  using Vec = typename Ops::Vec;
  Vec d = diag;
  Vec x = mx;
  Vec p = peak;
  int stop = cb;
  for (int c = ca; c < cb; ++c) {
    const std::size_t e = static_cast<std::size_t>(c) * s.stride;
    Vec up;
    Vec my;
    if constexpr (kGrid) {
      up = Ops::set1(b.up_h[c]);
      my = Ops::set1(b.up_my[c]);
    } else {
      up = Ops::load(s.h + e);
      my = Ops::load(s.max_y + e);
    }
    const Vec h =
        dp_cell<Ops, kMask, false, kDeep>(s, row, c, d, x, my, p, peak_mask);
    Ops::store(s.h + e, h);
    Ops::store(s.max_y + e, my);
    Ops::store(s.max_x + e, x);
    d = up;
    if constexpr (kTest) {
      if (!Ops::all_eq(h, Ops::set1(b.h[c])) ||
          !Ops::all_eq(my, Ops::set1(b.my[c]))) {
        *changed = c;
      } else if (c >= from && Ops::all_eq(x, Ops::set1(b.mx[c]))) {
        stop = c;
        break;
      }
    }
  }
  diag = d;
  mx = x;
  peak = p;
  return stop;
}

/// Calls f(std::true_type{}) or f(std::false_type{}): turns a per-row flag
/// into a template argument, so each column loop is compiled per case.
template <class F>
inline void with_flag(bool flag, F&& f) {
  if (flag) {
    f(std::true_type{});
  } else {
    f(std::false_type{});
  }
}

/// First column in [c, cb) where `row` has an overridden pair, or cb. Pairs
/// with j <= i (deep rows' garbage lane-cells) have no bits to search.
template <class Ops>
int next_override(const SweepRow<Ops>& row, int r0, int c, int cb) {
  if (row.obits == nullptr) return cb;
  c = std::max(c, row.i + 1 - r0);
  while (c < cb) {
    const std::int64_t b = r0 + c - row.i - 1;
    const std::uint64_t w =
        row.obits[b >> 6].load(std::memory_order_relaxed) >> (b & 63);
    if (w != 0) return std::min(cb, c + std::countr_zero(w));
    c += 64 - static_cast<int>(b & 63);
  }
  return cb;
}

/// Splits [c0, c1) at the overridden columns of rows a and b (b optional):
/// calls cols(ca, cb, false) on each run of columns without an overridden
/// pair and cols(c, c + 1, true) on each column with one, so only those
/// single columns pay for the override test.
template <class Ops, class F>
void by_override_runs(const SweepRow<Ops>& a,
                      const std::type_identity_t<SweepRow<Ops>>* b, int r0,
                      int c0, int c1, F&& cols) {
  for (int c = c0; c < c1; ++c) {
    int next = next_override(a, r0, c, c1);
    if (b != nullptr) next = std::min(next, next_override(*b, r0, c, next));
    if (c < next) cols(c, next, false);
    if (next < c1) cols(next, next + 1, true);
    c = next;
  }
}

/// Sweeps one group. `profile` is the engine's query profile for the job's
/// sequence and scoring (biased for unsigned elements). `saturated` selects
/// the saturation protocol: when null a saturating sweep throws (explicit
/// fixed-precision engines); when non-null it is set to whether the sweep
/// saturated. A saturating sweep stops at the first row that breaks the
/// certificate: the sink keeps only the staged rows above that row, and the
/// outputs are garbage the caller must discard by finishing the sweep at
/// wider precision. A non-null `band` runs the band sweep (u8 lanes, no
/// resume, no overrides; see "Band rows").
template <class Ops>
void run_simd_group(const GroupJob& job, std::span<const std::span<Score>> out,
                    SimdScratchT<typename Ops::Elem>& scratch,
                    const QueryProfileT<typename Ops::Elem>& profile,
                    bool* saturated = nullptr, BandGrid* band = nullptr) {
  constexpr int L = Ops::kLanes;
  using Elem = typename Ops::Elem;
  constexpr bool kUnsigned = !std::is_signed_v<Elem>;
  static_assert(!kUnsigned || Ops::kSaturating,
                "unsigned lanes must saturate");

  const auto& seq = job.seq;
  const int m = static_cast<int>(seq.size());
  const int r0 = job.r0;
  const int count = job.count;
  const int width = m - r0;          // columns of the widest lane (lane 0)
  const int rows = r0 + count - 1;   // rows of the deepest lane
  const int cm = count - 1;          // columns [0, cm) carry border masks
  REPRO_CHECK_MSG(profile.feasible() && profile.width() == m,
                  "SIMD kernels require a feasible query profile of the "
                  "group's sequence (group r0=" << r0 << ")");

  // Mask tables, kept as aligned i16 so vectors of over-aligned register
  // types never land in (insufficiently aligned) std::vector storage.
  // colmask row c: lane k alive iff c >= k — masks the first count-1 columns.
  // deepmask row t-1 (t = y - r0 >= 1): lane k alive iff k >= t — masks
  // garbage lane-cells out of the saturation peak in the deepest rows.
  alignas(64) Elem colmask[L * L];
  alignas(64) Elem deepmask[L * L];
  for (int c = 0; c < cm; ++c)
    for (int k = 0; k < L; ++k)
      colmask[c * L + k] = static_cast<Elem>(c >= k ? -1 : 0);
  for (int t = 1; t < count; ++t)
    for (int k = 0; k < L; ++k)
      deepmask[(t - 1) * L + k] = static_cast<Elem>(k >= t ? -1 : 0);

  auto& h = scratch.h;
  auto& max_y = scratch.max_y;
  const std::size_t state_elems = static_cast<std::size_t>(width) * L;
  const std::size_t state_bytes = state_elems * sizeof(Elem);

  // Checkpoint resume: restore the interleaved (H, MaxY) state as the kernel
  // left it after DP row resume->row and re-enter the sweep one row below.
  // Each row starts at column 0 with diagonal 0 and MaxX -inf, so nothing
  // else needs restoring.
  int y_begin = 1;
  if (job.resume != nullptr) {
    const CheckpointView& ck = *job.resume;
    REPRO_CHECK_MSG(ck.lanes == L &&
                        ck.elem_size == static_cast<int>(sizeof(Elem)) &&
                        ck.bytes == state_bytes && ck.row >= 1 && ck.row < r0,
                    "checkpoint state does not match this kernel's layout "
                    "(group r0=" << r0 << ")");
    grow_to(h, state_elems);
    grow_to(max_y, state_elems);
    std::memcpy(h.data(), ck.h, state_bytes);
    std::memcpy(max_y.data(), ck.max_y, state_bytes);
    y_begin = ck.row + 1;
    if constexpr (check::kContractsEnabled && !kUnsigned) {
      // Checkpoint rows are emitted at y <= r0-1, above every lane's bottom
      // row, so every restored lane-cell is a genuine (clamped) local score.
      // (Unsigned elements satisfy this by type.)
      for (std::size_t e = 0; e < state_elems; ++e)
        REPRO_DCHECK_MSG(h[e] >= 0, "restored checkpoint H negative at elem "
                                        << e << " (group r0=" << r0 << ")");
    }
  } else {
    h.assign(state_elems, 0);
    max_y.assign(state_elems, neg_inf_of<Elem>());
  }
  REPRO_DCHECK_MSG(util::is_vector_aligned(h.data()) &&
                       util::is_vector_aligned(max_y.data()),
                   "SIMD scratch rows must be 32-byte aligned");

  // Checkpoint emission grid: rows on the sink's stride plus its top row,
  // clamped above every lane's bottom row so outputs are always recomputed.
  CheckpointSink* sink = job.sink;
  if (sink != nullptr) {
    REPRO_CHECK(sink->stride >= 1);
    sink->lanes = L;
    sink->elem_size = static_cast<int>(sizeof(Elem));
    sink->prepare(y_begin, std::min(sink->top_row, r0 - 1), state_bytes);
  }

  // The column loops run on register-sized parts of the lane vector: the
  // whole vector for most Ops, each register of a multi-register Ops (the
  // double-pumped i16 kernel). Lanes never interact, so a part sweeps its
  // lanes of every column (stride L) alone, with every live vector of a
  // row pair in registers.
  using Part = typename PartOf<Ops>::type;
  using PVec = typename Part::Vec;
  constexpr int PL = Part::kLanes;
  constexpr int kParts = L / PL;
  static_assert(kParts * PL == L, "parts must tile the lane vector");
  const PVec v_zero = Part::zero();
  const PVec v_neg = Part::set1(neg_inf_of<Elem>());
  REPRO_CHECK_MSG(band == nullptr ||
                      (kUnsigned && kParts == 1 && y_begin == 1 &&
                       job.overrides == nullptr &&
                       (!band->write || count == L)),
                  "a band sweep needs u8 rows of an empty-triangle sweep "
                  "from row 1 (group r0=" << r0 << ")");
  if (band != nullptr) grow_to(scratch.max_x, state_elems);
  std::array<SweepConsts<Part>, kParts> consts;
  for (int p = 0; p < kParts; ++p)
    consts[static_cast<std::size_t>(p)] = {
        Part::set1(static_cast<Elem>(job.scoring->gap.open)),
        Part::set1(static_cast<Elem>(job.scoring->gap.extend)),
        v_zero,
        Part::set1(static_cast<Elem>(profile.bias())),
        h.data() + p * PL,
        max_y.data() + p * PL,
        band != nullptr ? scratch.max_x.data() : nullptr,
        colmask + p * PL,
        L,
        r0};
  const auto row_of = [&](int y) {
    const int i = y - 1;
    const std::atomic<std::uint64_t>* obits =
        (job.overrides != nullptr && !job.overrides->row_empty(i))
            ? job.overrides->row_bits(i)
            : nullptr;
    return SweepRow<Part>{profile.row(seq[static_cast<std::size_t>(i)]) + r0,
                          obits, i};
  };

  // Running max of valid lane-cells per part (the saturation guard). Rows
  // <= y_begin-1 were certified by the sweep that emitted the restored
  // checkpoint (saturating sweeps throw or stop before their uncertified
  // rows are kept).
  // Plain arrays: std::array<__m256i, N> drops the vector type's alignment
  // attribute (-Wignored-attributes).
  PVec v_peak[kParts];
  std::fill(std::begin(v_peak), std::end(v_peak), v_zero);

  // Certification limit: the largest peak from which one more adds input
  // provably could not have saturated. Every adds operand is an H value <=
  // peak, so peak <= limit proves no clamp occurred in any row swept so far;
  // peak > limit is treated as saturated (conservatively).
  //   i16: limit 32766 (a peak of 32767 is indistinguishable from a clamp)
  //   u8:  limit 255 - bias - max_score (one biased profile add of slack)
  // Returns the first lane of the group past the limit, or -1. Lanes >=
  // count carry garbage and are not checked.
  const auto saturated_lane = [&] {
    if constexpr (Ops::kSaturating) {
      const int limit =
          kUnsigned ? std::numeric_limits<Elem>::max() - profile.bias() -
                          profile.max_score()
                    : std::numeric_limits<Elem>::max() - 1;
      alignas(64) Elem peakbuf[L];
      for (int p = 0; p < kParts; ++p)
        Part::store(peakbuf + p * PL, v_peak[static_cast<std::size_t>(p)]);
      for (int k = 0; k < count; ++k)
        if (peakbuf[k] > limit) return k;
    }
    return -1;
  };

  // Band sweep state (see "Band rows"): the row above holds its own state
  // in h / max_y up to column `reach` and the reference's beyond, and its H
  // and MaxY equal the reference's past column `changed` (the boundary row
  // equals the reference everywhere).
  int reach = width - 1;
  int changed = -1;
  // Sweeps row y of a band sweep, keeping MaxX and writing the last lane
  // back; false leaves the row to the plain loops below.
  const auto sweep_band_row = [&](int y) {
    if constexpr (kUnsigned) {
      if (y == r0 && reach < width - 1) {
        // Row r0 reads all of row r0 - 1, whose tail is the reference's.
        const std::size_t ga = BandGrid::at(m, y - 1, r0);
        for (int c = reach + 1; c < width; ++c) {
          const std::size_t e = static_cast<std::size_t>(c) * L;
          Part::store(h.data() + e, Part::set1(band->h[ga + c]));
          Part::store(max_y.data() + e, Part::set1(band->my[ga + c]));
        }
        reach = width - 1;
      }
      if (y >= r0 && !band->write) return false;
      const std::size_t gy = BandGrid::at(m, y, r0);
      BandRow b{nullptr, nullptr, band->h + gy, band->mx + gy, band->my + gy};
      if (y > 1) {
        const std::size_t ga = BandGrid::at(m, y - 1, r0);
        b.up_h = band->h + ga;
        b.up_my = band->my + ga;
      }
      const SweepRow<Part> r = row_of(y);
      const SweepConsts<Part>& k = consts[0];
      PVec d = v_zero;
      PVec x = v_neg;
      PVec& pk = v_peak[0];
      const int deep = y - r0;
      if (deep >= 0 || band->seed) {
        // A row new to the reference, or a seed's: swept whole, as its last
        // lane is the next reference.
        const PVec pm =
            deep > 0 ? Part::load(deepmask + (deep - 1) * L) : v_zero;
        with_flag(deep > 0, [&](auto is_deep) {
          constexpr bool kD = decltype(is_deep)::value;
          sweep_keep<Part, true, kD, false, false>(k, r, b, 0, cm, d, x, pk,
                                                   pm);
          sweep_keep<Part, false, kD, false, false>(k, r, b, cm, width, d, x,
                                                    pk, pm);
        });
      } else {
        // The row may stop past the masks and the row above's last change;
        // the row above's own state ends at `reach`.
        const int from = std::max(cm, changed + 1);
        const int g = reach + 1;
        REPRO_DCHECK_MSG(from <= g, "band row " << y << " may stop at column "
                                                << from
                                                << " before the row above's "
                                                   "state ends at "
                                                << g);
        changed = cm - 1;
        sweep_keep<Part, true, false, false, false>(k, r, b, 0, cm, d, x, pk,
                                                    v_zero);
        int s = sweep_keep<Part, false, false, false, true>(
            k, r, b, cm, g, d, x, pk, v_zero, from, &changed);
        if (s == g)
          s = sweep_keep<Part, false, false, true, true>(
              k, r, b, g, width, d, x, pk, v_zero, from, &changed);
        reach = std::min(s, width - 1);
        band->cells_reused += static_cast<std::uint64_t>(width - 1 - reach) *
                              static_cast<std::uint64_t>(L);
      }
      if (band->write) {
        // The next group reads the reference only past its own masks.
        const int next_cm = std::min(L, m - r0 - L) - 1;
        for (int c = L + next_cm; c <= reach; ++c) {
          const std::size_t e = static_cast<std::size_t>(c) * L + (L - 1);
          band->h[gy + c] = h[e];
          band->mx[gy + c] = scratch.max_x[e];
          band->my[gy + c] = max_y[e];
        }
      }
      return true;
    }
    return false;
  };

  int emit_idx = 0;
  for (int y = y_begin; y <= rows; ++y) {
    const bool emits = sink != nullptr && emit_idx < sink->count &&
                       y == sink->rows[static_cast<std::size_t>(emit_idx)].row;
    bool band_swept = false;
    if constexpr (kUnsigned) {
      if (band != nullptr) band_swept = sweep_band_row(y);
    }
    if (band_swept) {
      // Row y is in h / max_y up to column `reach`, and the reference's
      // beyond.
    } else if (y < r0 && !emits) {
      // Rows y and y+1 <= r0 in one pass; only row y+1 reaches memory.
      const SweepRow<Part> a = row_of(y);
      const SweepRow<Part> b = row_of(y + 1);
      for (int p = 0; p < kParts; ++p) {
        const auto pi = static_cast<std::size_t>(p);
        PVec da = v_zero;
        PVec db = v_zero;
        PVec xa = v_neg;
        PVec xb = v_neg;
        by_override_runs(a, &b, r0, 0, width, [&](int ca, int cb, bool over) {
          with_flag(over && a.obits != nullptr, [&](auto over_a) {
            with_flag(over && b.obits != nullptr, [&](auto over_b) {
              constexpr bool kA = decltype(over_a)::value;
              constexpr bool kB = decltype(over_b)::value;
              const int split = std::clamp(cm, ca, cb);
              sweep_pair<Part, true, kA, kB>(consts[pi], a, b, ca, split, da,
                                             db, xa, xb, v_peak[pi]);
              sweep_pair<Part, false, kA, kB>(consts[pi], a, b, split, cb, da,
                                              db, xa, xb, v_peak[pi]);
            });
          });
        });
      }
      ++y;  // the pair's lower row: its state is in h / max_y
    } else {
      const SweepRow<Part> r = row_of(y);
      const int deep = y - r0;  // > 0 in the last count-1 rows
      for (int p = 0; p < kParts; ++p) {
        const auto pi = static_cast<std::size_t>(p);
        const PVec peak_mask =
            deep > 0 ? Part::load(deepmask + (deep - 1) * L + p * PL) : v_zero;
        PVec d = v_zero;
        PVec x = v_neg;
        by_override_runs(r, nullptr, r0, 0, width,
                         [&](int ca, int cb, bool over) {
          with_flag(over, [&](auto over_r) {
            with_flag(deep > 0, [&](auto is_deep) {
              constexpr bool kO = decltype(over_r)::value;
              constexpr bool kD = decltype(is_deep)::value;
              const int split = std::clamp(cm, ca, cb);
              sweep_row<Part, true, kO, kD>(consts[pi], r, ca, split, d, x,
                                            v_peak[pi], peak_mask);
              sweep_row<Part, false, kO, kD>(consts[pi], r, split, cb, d, x,
                                             v_peak[pi], peak_mask);
            });
          });
        });
      }
    }
    // The peak only grows, so the first row past the limit decides the
    // sweep: stop there. Rows above this pass are certified, and so are the
    // checkpoint rows staged from them.
    if (const int bad = saturated_lane(); bad >= 0) {
      REPRO_CHECK_MSG(saturated != nullptr,
                      (kUnsigned ? "u8" : "i16")
                          << " SIMD lane saturated (split r=" << r0 + bad
                          << "); use an adaptive or wider engine for this "
                             "input");
      *saturated = true;
      if (sink != nullptr) sink->count = emit_idx;
      return;
    }
    // Extract lane k's bottom row when this is its last row.
    const int k = y - r0;
    if (k >= 0 && k < count) {
      auto row_out = out[static_cast<std::size_t>(k)];
      for (int c = k; c < width; ++c)
        row_out[static_cast<std::size_t>(c - k)] = static_cast<Score>(
            h[static_cast<std::size_t>(c) * L + static_cast<std::size_t>(k)]);
      if constexpr (check::kContractsEnabled) {
        for (int c = k; c < width; ++c)
          REPRO_DCHECK_MSG(row_out[static_cast<std::size_t>(c - k)] >= 0,
                           "negative bottom-row H (split r=" << r0 + k
                               << ", column " << c - k << ")");
      }
    }
    // Emit a checkpoint row: h/max_y now hold exactly the state a resume at
    // row y+1 restores.
    if (sink != nullptr && emit_idx < sink->count &&
        y == sink->rows[static_cast<std::size_t>(emit_idx)].row) {
      CheckpointRow& cr = sink->rows[static_cast<std::size_t>(emit_idx)];
      // A band row's state ends at `reach`; every lane equals the reference
      // beyond it.
      const int own = band != nullptr ? reach + 1 : width;
      const std::size_t len =
          static_cast<std::size_t>(own) * L * sizeof(Elem);
      std::memcpy(cr.h.data(), h.data(), len);
      std::memcpy(cr.max_y.data(), max_y.data(), len);
      if constexpr (kUnsigned) {
        const std::size_t gy = own < width ? BandGrid::at(m, y, r0) : 0;
        for (int c = own; c < width; ++c) {
          const std::size_t e = static_cast<std::size_t>(c) * L;
          std::memset(cr.h.data() + e, band->h[gy + c], L);
          std::memset(cr.max_y.data() + e, band->my[gy + c], L);
        }
      }
      if constexpr (check::kContractsEnabled && !kUnsigned) {
        // The emitted row must satisfy the same non-negativity the resume
        // path asserts before re-entering the sweep. (Unsigned elements
        // satisfy it by type.)
        for (std::size_t e = 0; e < state_elems; ++e)
          REPRO_DCHECK_MSG(h[e] >= 0,
                           "negative H in emitted checkpoint row " << y);
      }
      ++emit_idx;
    }
  }

  if (saturated != nullptr) *saturated = false;
}

}  // namespace repro::align::detail
