// Shared SIMD engine implementations. Not part of the API.
//
// Every SIMD translation unit (SSE2, AVX2, generic) instantiates the same
// two class templates over its Ops policies:
//
//   * SimdEngineT<Ops> — fixed-precision i16 or i32 engine: one scratch,
//     one cached query profile, one kernel instantiation. i16 saturation
//     throws.
//   * AdaptiveEngineT<Ops8, Ops16> — the adaptive driver: runs each group in
//     u8 lanes, and when the sweep's saturation guard fires (the kernel
//     stops at the first row past the u8 limit) finishes that same sweep in
//     i16 lanes *at the same lane count* (DoublePumpOps splits each u8
//     vector across two i16 registers), so group geometry, outputs, and
//     checkpoint layouts stay native in both precisions. The i16 pass
//     resumes from the deepest certified u8 state, widened: the last staged
//     checkpoint row above the break, else the job's u8 resume view, else
//     row 0. The widened staged rows stay in front of the i16 pass's own,
//     so the group's cache entry holds the same grid rows, all i16.
//     Escalation is sticky per split, as a policy: override growth only
//     ever zeroes cells, so DP values are nonincreasing across realignment
//     rounds, which implies only that a split certified clean stays clean.
//     A split that saturated once may fit u8 under a later triangle, but
//     finding out costs a u8 pass that would likely break again, so it is
//     swept at i16 from then on. An i16 resume row tells an engine that
//     another engine sharing its checkpoint cache escalated the split; a u8
//     one, stored by an engine that swept the split clean under a later
//     triangle, seeds an escalated engine's i16 pass widened.
//     First sweeps in ascending r0 on one engine take the band path
//     (simd_kernel.hpp, "Band rows"): a group right after the adjacent one
//     recomputes only where it differs from that group's last rectangle,
//     kept on a grid the engine owns. Any full first-sweep group that does
//     not follow a reference or an escalated group seeds the grid: group 1,
//     the first group of a worker's run of first sweeps, the group after
//     a clean one that ended an escalated run. A group that escalates ends
//     the chain; the adjacent groups after it run the plain sweep while
//     they escalate. Any other call ends the chain. The first call with
//     overrides frees the grid, and the engine seeds no more until its
//     next workload, so low-memory plain recomputes stay plain sweeps.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "align/engine.hpp"
#include "align/engine_detail.hpp"
#include "align/query_profile.hpp"
#include "align/simd_kernel.hpp"
#include "check/contracts.hpp"

namespace repro::align::detail {

/// Bumps the sweep counter matching Elem's precision (i32 sweeps are not
/// tracked — they have no narrower precision to compare against).
template <typename Elem>
inline void note_sweep(PrecisionStats& stats) {
  if constexpr (sizeof(Elem) == 1) {
    ++stats.i8_sweeps;
  } else if constexpr (sizeof(Elem) == 2) {
    ++stats.i16_sweeps;
  }
}

template <class Ops>
class SimdEngineT final : public Engine {
  static_assert(std::is_signed_v<typename Ops::Elem>,
                "u8 lanes run only under AdaptiveEngineT");

 public:
  explicit SimdEngineT(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int lanes() const override { return Ops::kLanes; }
  [[nodiscard]] bool supports_checkpoints() const override { return true; }
  [[nodiscard]] bool bands(int /*m*/) const override { return false; }
  [[nodiscard]] PrecisionStats precision_stats() const override {
    return stats_;
  }

 protected:
  void do_align(const GroupJob& job,
                std::span<const std::span<Score>> out) override {
    validate_job(job, out, lanes());
    profile_.ensure(job.seq, *job.scoring, stats_);
    run_simd_group<Ops>(job, out, scratch_, profile_);
    note_sweep<typename Ops::Elem>(stats_);
  }

 private:
  std::string name_;
  SimdScratchT<typename Ops::Elem> scratch_;
  QueryProfileT<typename Ops::Elem> profile_;
  PrecisionStats stats_;
};

/// Base's i16 lanes twice over: 2 x Base::kLanes lanes, the vector spread
/// over two Base registers (element p in register p / Base::kLanes). The
/// kernel sweeps each register's lanes as a separate part, so only the
/// shape is declared here. This gives the adaptive engine an i16 kernel with
/// the *same* lane count and interleaved layout as its u8 kernel, so
/// escalation changes only the element width — never the group geometry or
/// checkpoint shape.
template <class Base>
struct DoublePumpOps {
  static constexpr int kLanes = 2 * Base::kLanes;
  using Elem = typename Base::Elem;
  static constexpr bool kSaturating = Base::kSaturating;
  using Part = Base;
};

/// Widens n elements of a u8 row state into `wide`; the interleaved layout
/// is kept.
inline void widen_u8_state(const std::byte* u8, std::size_t n,
                           std::vector<std::int16_t>& wide) {
  wide.resize(n);
  for (std::size_t e = 0; e < n; ++e)
    wide[e] = std::to_integer<std::int16_t>(u8[e]);
}

template <class Ops8, class Ops16>
class AdaptiveEngineT final : public Engine {
  static_assert(Ops8::kLanes == Ops16::kLanes,
                "adaptive precisions must share one lane count");
  static_assert(std::is_same_v<typename Ops8::Elem, std::uint8_t> &&
                    std::is_same_v<typename Ops16::Elem, std::int16_t>,
                "adaptive driver escalates u8 -> i16");

 public:
  explicit AdaptiveEngineT(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int lanes() const override { return Ops8::kLanes; }
  [[nodiscard]] bool supports_checkpoints() const override { return true; }
  [[nodiscard]] PrecisionStats precision_stats() const override {
    return stats_;
  }
  /// The band grid fits: 3 B per upper-triangle cell within
  /// kBandGridMaxBytes, so m <= 6,689.
  [[nodiscard]] bool bands(int m) const override {
    return 3 * BandGrid::cells(m) <= kBandGridMaxBytes;
  }

 protected:
  void do_align(const GroupJob& job,
                std::span<const std::span<Score>> out) override {
    validate_job(job, out, lanes());
    if (profile8_.ensure(job.seq, *job.scoring, stats_)) {
      // New workload: prior escalation decisions and the reference no
      // longer apply.
      escalated_.clear();
      chain_ = Chain::kNone;
      seeds_ = true;
    }
    // Band sweeps serve the first sweep only: the first overridden call
    // ends them for good, so the grid goes.
    if (job.overrides != nullptr) {
      grid_.reset();
      seeds_ = false;
    }
    // An i16 resume row means an engine sharing the checkpoint cache
    // escalated this split; a u8 one was certified exact, so the i16 pass
    // resumes from it widened.
    const bool u8_resume = job.resume != nullptr && job.resume->elem_size == 1;
    if (job.resume != nullptr && !u8_resume) escalated_.insert(job.r0);
    GroupJob j16 = job;
    int kept = 0;  // widened u8 rows staged in front of the i16 pass's own
    const Chain chain = job.r0 == chain_next_ ? chain_ : Chain::kNone;
    chain_ = Chain::kNone;
    if (profile8_.feasible() && escalated_.count(job.r0) == 0) {
      bool sat = false;
      BandGrid* band = plan_band(job, chain);
      run_simd_group<Ops8>(job, out, scratch8_, profile8_, &sat, band);
      note_sweep<std::uint8_t>(stats_);
      if (band != nullptr) {
        stats_.cells_reused += band->cells_reused;
        if constexpr (check::kContractsEnabled) check_band(job, out, sat);
      }
      if (full_band_job(job)) {
        // The next adjacent group bands over this group's reference, or
        // waits out an escalated run.
        chain_ = sat ? Chain::kEscalated
                 : band != nullptr ? Chain::kReference
                                   : Chain::kNone;
        chain_next_ = job.r0 + job.count;
      }
      if (!sat) return;
      ++stats_.escalations;
      escalated_.insert(job.r0);
      kept = resume_certified(job, j16);
    } else if (u8_resume) {
      j16.resume = widen_view(*job.resume);
    }
    profile16_.ensure(job.seq, *job.scoring, stats_);
    if (kept > 0) {
      own_sink_.stride = job.sink->stride;
      own_sink_.top_row = job.sink->top_row;
      j16.sink = &own_sink_;
    }
    bool sat = false;
    run_simd_group<Ops16>(j16, out, scratch16_, profile16_, &sat);
    note_sweep<std::int16_t>(stats_);
    REPRO_CHECK_MSG(!sat, "the auto engine (" << name_
                          << ") reached its i16 ceiling in group r0="
                          << job.r0
                          << "; use simd8x32 or scalar for this input");
    if (kept > 0) splice_own_rows(*job.sink, kept);
  }

 private:
  /// How the last call leaves the next adjacent first-sweep group (r0 =
  /// chain_next_): kReference — the grid holds that group's reference, so
  /// it bands; kEscalated — the call escalated, so the group runs the plain
  /// sweep with no grid writes; kNone — anything else, so a full group
  /// seeds.
  enum class Chain { kNone, kReference, kEscalated };

  /// Grid bytes above which every group runs the plain sweep: 3 B per
  /// upper-triangle cell, so m <= 6,689.
  static constexpr std::size_t kBandGridMaxBytes = std::size_t{64} << 20;

  /// True when `job` is a first-sweep group the band path serves: u8 rows
  /// from row 1 under the empty triangle, the finder's group at r0
  /// (L splits, fewer only at the end), and a grid within its cap. (The
  /// profile was not rebuilt, or the chain would be kNone.)
  [[nodiscard]] bool band_job(const GroupJob& job) const {
    const int m = static_cast<int>(job.seq.size());
    return job.overrides == nullptr && job.resume == nullptr &&
           job.count == std::min(Ops8::kLanes, m - job.r0) && bands(m);
  }

  /// True when `job` is a full band job: one the next adjacent group may
  /// continue from.
  [[nodiscard]] bool full_band_job(const GroupJob& job) const {
    return band_job(job) && job.count == Ops8::kLanes;
  }

  /// The band step of the u8 pass of `job`, given the chain the last call
  /// left it, or nullptr for the plain sweep. A seed sweeps its rows above
  /// r0 whole and writes the grid; a band step over a reference writes it
  /// back only for a full group, as a partial one is the sequence's last.
  BandGrid* plan_band(const GroupJob& job, Chain chain) {
    const int m = static_cast<int>(job.seq.size());
    const bool band = chain == Chain::kReference && band_job(job);
    const bool seed = !band && seeds_ && chain == Chain::kNone &&
                      full_band_job(job);
    if (!band && !seed) return nullptr;
    const std::size_t cells = BandGrid::cells(m);
    if (seed && (grid_ == nullptr || grid_m_ != m)) {
      // Pages are touched only as rows are written.
      grid_ = std::make_unique_for_overwrite<std::uint8_t[]>(3 * cells);
      grid_m_ = m;
    }
    band_ = {grid_.get(),
             grid_.get() + cells,
             grid_.get() + 2 * cells,
             seed,
             job.count == Ops8::kLanes && job.r0 + job.count < m,
             0};
    return &band_;
  }

  /// Contract of the band path: a direct sweep of the same job gives the
  /// same certificate, bottom rows and staged checkpoint rows.
  void check_band(const GroupJob& job, std::span<const std::span<Score>> out,
                  bool sat) {
    check_rows_.resize(out.size());
    check_outs_.resize(out.size());
    for (std::size_t k = 0; k < out.size(); ++k) {
      check_rows_[k].resize(out[k].size());
      check_outs_[k] = check_rows_[k];
    }
    GroupJob direct = job;
    if (job.sink != nullptr) {
      check_sink_.stride = job.sink->stride;
      check_sink_.top_row = job.sink->top_row;
      direct.sink = &check_sink_;
    }
    bool direct_sat = false;
    run_simd_group<Ops8>(direct, check_outs_, check_scratch_, profile8_,
                         &direct_sat);
    REPRO_DCHECK_MSG(direct_sat == sat, "band sweep of group r0="
                                            << job.r0
                                            << " changed the u8 certificate");
    if (!sat)
      for (std::size_t k = 0; k < out.size(); ++k)
        REPRO_DCHECK_MSG(std::equal(out[k].begin(), out[k].end(),
                                    check_rows_[k].begin()),
                         "band sweep of group r0=" << job.r0
                             << " changed bottom row " << k);
    if (job.sink == nullptr) return;
    const CheckpointSink& a = *job.sink;
    REPRO_DCHECK(a.count == check_sink_.count);
    for (int t = 0; t < a.count; ++t) {
      const CheckpointRow& x = a.rows[static_cast<std::size_t>(t)];
      const CheckpointRow& y = check_sink_.rows[static_cast<std::size_t>(t)];
      REPRO_DCHECK_MSG(x.row == y.row && x.h == y.h && x.max_y == y.max_y,
                       "band sweep of group r0=" << job.r0
                           << " changed staged checkpoint row " << x.row);
    }
  }

  /// Points j16 at the deepest state the broken u8 pass j8 certified,
  /// widened to i16: the last staged row (the kernel keeps only certified
  /// ones), else j8's resume view, else row 1.
  /// Returns the number of staged rows, all widened in place.
  int resume_certified(const GroupJob& j8, GroupJob& j16) {
    CheckpointSink* sink = j8.sink;
    const int kept = sink != nullptr ? sink->count : 0;
    if (kept > 0) {
      for (int t = 0; t < kept; ++t) {
        CheckpointRow& cr = sink->rows[static_cast<std::size_t>(t)];
        for (std::vector<std::byte>* buf : {&cr.h, &cr.max_y}) {
          widen_u8_state(buf->data(), buf->size(), wide_h_);
          buf->resize(2 * wide_h_.size());
          std::memcpy(buf->data(), wide_h_.data(), buf->size());
        }
      }
      sink->elem_size = 2;
      const CheckpointRow& last = sink->rows[static_cast<std::size_t>(kept - 1)];
      wide_view_ = {last.row, Ops16::kLanes, 2, last.h.data(),
                    last.max_y.data(), last.h.size()};
      j16.resume = &wide_view_;
    } else if (j8.resume != nullptr) {
      j16.resume = widen_view(*j8.resume);
    }
    return kept;
  }

  /// The u8 resume state v widened to i16, in wide_view_.
  const CheckpointView* widen_view(const CheckpointView& v) {
    widen_u8_state(v.h, v.bytes, wide_h_);
    widen_u8_state(v.max_y, v.bytes, wide_max_y_);
    wide_view_ = {v.row,
                  Ops16::kLanes,
                  2,
                  reinterpret_cast<const std::byte*>(wide_h_.data()),
                  reinterpret_cast<const std::byte*>(wide_max_y_.data()),
                  2 * v.bytes};
    return &wide_view_;
  }

  /// Moves the i16 pass's staged rows behind the `kept` widened ones.
  void splice_own_rows(CheckpointSink& sink, int kept) {
    const auto n = static_cast<std::size_t>(kept + own_sink_.count);
    if (sink.rows.size() < n) sink.rows.resize(n);
    for (int t = 0; t < own_sink_.count; ++t)
      std::swap(sink.rows[static_cast<std::size_t>(kept + t)],
                own_sink_.rows[static_cast<std::size_t>(t)]);
    sink.count = static_cast<int>(n);
    sink.lanes = own_sink_.lanes;
    sink.elem_size = own_sink_.elem_size;
  }

  std::string name_;
  SimdScratchT<std::uint8_t> scratch8_;
  SimdScratchT<std::int16_t> scratch16_;
  QueryProfileT<std::uint8_t> profile8_;
  QueryProfileT<std::int16_t> profile16_;
  PrecisionStats stats_;
  std::set<int> escalated_;  ///< splits r0 pinned to the i16 path
  CheckpointView wide_view_;  ///< the i16 pass's widened resume state
  std::vector<std::int16_t> wide_h_, wide_max_y_;  ///< widened u8 states
  CheckpointSink own_sink_;  ///< the i16 pass's rows when u8 rows are kept
  Chain chain_ = Chain::kNone;
  int chain_next_ = 0;  ///< r0 of the group that continues the chain
  bool seeds_ = true;   ///< no overridden call yet on this workload
  std::unique_ptr<std::uint8_t[]> grid_;  ///< H, MaxX, MaxY planes
  int grid_m_ = 0;                        ///< sequence length grid_ fits
  BandGrid band_;
  // The direct re-sweep of check_band (checked builds only).
  SimdScratchT<std::uint8_t> check_scratch_;
  std::vector<std::vector<Score>> check_rows_;
  std::vector<std::span<Score>> check_outs_;
  CheckpointSink check_sink_;
};

}  // namespace repro::align::detail
