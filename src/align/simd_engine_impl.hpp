// Shared SIMD engine implementations. Not part of the API.
//
// Every SIMD translation unit (SSE2, SSE4.1, AVX2, generic) instantiates the
// same two class templates over its Ops policies:
//
//   * SimdEngineT<Ops> — fixed-precision engine: one scratch, one cached
//     query profile, one kernel instantiation. Saturation throws (the
//     upfront check_headroom guard exists so explicit selections fail fast
//     instead).
//   * AdaptiveEngineT<Ops8, Ops16> — the adaptive driver: runs each group in
//     u8 lanes, and when the sweep's saturation guard fires re-runs exactly
//     that group in i16 lanes *at the same lane count* (DoublePumpOps splits
//     each u8 vector across two i16 registers), so group geometry, outputs,
//     and checkpoint layouts stay native in both precisions. Escalation is
//     sticky per split: override growth only ever zeroes cells, so DP values
//     are monotonically nonincreasing across realignment rounds — a group
//     that saturated once is swept at i16 from then on (and, conversely, a
//     group certified clean can never saturate in a later round, which keeps
//     each checkpoint-cache entry's layout stable for the whole run).
#pragma once

#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include "align/engine.hpp"
#include "align/engine_detail.hpp"
#include "align/query_profile.hpp"
#include "align/simd_kernel.hpp"
#include "obs/metrics.hpp"

namespace repro::align::detail {

// Stripe default: row state is H + MaxY, and the paper dedicates a third of
// L1D (32 KiB typical) to the row section.
inline int default_stripe(int lanes, int elem_bytes) {
  return 32768 / 3 / (2 * elem_bytes * lanes);
}

// Precision counters: engines bump their PrecisionStats struct and mirror
// into the global registry (one relaxed add per group sweep; the whole
// mirror vanishes with REPRO_OBS=OFF).
inline void note_sweep_obs(bool i8) {
  if constexpr (obs::kEnabled) {
    static obs::Counter& i8_sweeps =
        obs::Registry::global().counter("align.precision.i8_sweeps");
    static obs::Counter& i16_sweeps =
        obs::Registry::global().counter("align.precision.i16_sweeps");
    (i8 ? i8_sweeps : i16_sweeps).add(1);
  } else {
    (void)i8;
  }
}

inline void note_escalation_obs() {
  if constexpr (obs::kEnabled) {
    static obs::Counter& escalations =
        obs::Registry::global().counter("align.precision.escalations");
    escalations.add(1);
  }
}

inline void note_profile_obs(bool rebuilt) {
  if constexpr (obs::kEnabled) {
    static obs::Counter& hits =
        obs::Registry::global().counter("align.precision.profile_hits");
    static obs::Counter& builds =
        obs::Registry::global().counter("align.precision.profile_builds");
    (rebuilt ? builds : hits).add(1);
  } else {
    (void)rebuilt;
  }
}

/// Bumps the sweep counter matching Elem's precision (i32 sweeps are not
/// tracked — they have no narrower precision to compare against).
template <typename Elem>
inline void note_sweep(PrecisionStats& stats) {
  if constexpr (sizeof(Elem) == 1) {
    ++stats.i8_sweeps;
    note_sweep_obs(true);
  } else if constexpr (sizeof(Elem) == 2) {
    ++stats.i16_sweeps;
    note_sweep_obs(false);
  }
}

template <class Ops>
class SimdEngineT final : public Engine {
 public:
  SimdEngineT(std::string name, int stripe_cols)
      : name_(std::move(name)),
        stripe_(stripe_cols == 0
                    ? default_stripe(Ops::kLanes, sizeof(typename Ops::Elem))
                    : stripe_cols) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int lanes() const override { return Ops::kLanes; }
  [[nodiscard]] bool supports_checkpoints() const override { return true; }
  [[nodiscard]] PrecisionStats precision_stats() const override {
    return stats_;
  }

 protected:
  void do_align(const GroupJob& job,
                std::span<const std::span<Score>> out) override {
    validate_job(job, out, lanes());
    note_profile_obs(profile_.ensure(job.seq, *job.scoring, stats_));
    if constexpr (!std::is_signed_v<typename Ops::Elem>) {
      REPRO_CHECK_MSG(profile_.feasible(),
                      "scoring exceeds the u8 biased-profile range; use an "
                      "adaptive (auto) or wider engine");
    }
    run_simd_group<Ops>(job, out, stripe_, scratch_, profile_);
    note_sweep<typename Ops::Elem>(stats_);
  }

 private:
  std::string name_;
  int stripe_;
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

template <class Ops8, class Ops16>
class AdaptiveEngineT final : public Engine {
  static_assert(Ops8::kLanes == Ops16::kLanes,
                "adaptive precisions must share one lane count");
  static_assert(std::is_same_v<typename Ops8::Elem, std::uint8_t> &&
                    std::is_same_v<typename Ops16::Elem, std::int16_t>,
                "adaptive driver escalates u8 -> i16");

 public:
  AdaptiveEngineT(std::string name, int stripe_cols)
      : name_(std::move(name)),
        stripe8_(stripe_cols == 0 ? default_stripe(Ops8::kLanes, 1)
                                  : stripe_cols),
        stripe16_(stripe_cols == 0 ? default_stripe(Ops16::kLanes, 2)
                                   : stripe_cols) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int lanes() const override { return Ops8::kLanes; }
  [[nodiscard]] bool supports_checkpoints() const override { return true; }
  [[nodiscard]] PrecisionStats precision_stats() const override {
    return stats_;
  }

 protected:
  void do_align(const GroupJob& job,
                std::span<const std::span<Score>> out) override {
    validate_job(job, out, lanes());
    if (profile8_.ensure(job.seq, *job.scoring, stats_)) {
      // New workload: prior escalation decisions no longer apply.
      note_profile_obs(true);
      escalated_.clear();
    } else {
      note_profile_obs(false);
    }
    if (profile8_.feasible() && escalated_.count(job.r0) == 0) {
      GroupJob j8 = job;
      // A checkpoint from the other precision's layout cannot seed this
      // sweep; drop it and sweep from row 1 (correct, just undiscounted).
      if (j8.resume != nullptr && j8.resume->elem_size != 1)
        j8.resume = nullptr;
      bool sat = false;
      run_simd_group<Ops8>(j8, out, stripe8_, scratch8_, profile8_, &sat);
      note_sweep<std::uint8_t>(stats_);
      if (!sat) return;
      // Escalate: outputs and staged checkpoints from the u8 attempt are
      // uncertified; the i16 sweep below re-prepares the same sink, so the
      // group's cache entry holds i16 rows from its very first store.
      ++stats_.escalations;
      note_escalation_obs();
      escalated_.insert(job.r0);
    }
    note_profile_obs(profile16_.ensure(job.seq, *job.scoring, stats_));
    GroupJob j16 = job;
    if (j16.resume != nullptr && j16.resume->elem_size != 2)
      j16.resume = nullptr;
    run_simd_group<Ops16>(j16, out, stripe16_, scratch16_, profile16_);
    note_sweep<std::int16_t>(stats_);
  }

 private:
  std::string name_;
  int stripe8_;
  int stripe16_;
  SimdScratchT<std::uint8_t> scratch8_;
  SimdScratchT<std::int16_t> scratch16_;
  QueryProfileT<std::uint8_t> profile8_;
  QueryProfileT<std::int16_t> profile16_;
  PrecisionStats stats_;
  std::set<int> escalated_;  ///< splits r0 pinned to the i16 path
};

}  // namespace repro::align::detail
