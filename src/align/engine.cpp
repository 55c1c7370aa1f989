// The Engine wrapper's accounting and the engine factory: make_engine picks
// each EngineKind's widest ISA among the per-ISA factories of
// engine_detail.hpp.
#include "align/engine.hpp"

#include <algorithm>
#include <limits>

#include "align/engine_detail.hpp"

namespace repro::align {

void Engine::align(const GroupJob& job, std::span<const std::span<Score>> out) {
  do_align(job, out);
  const auto m = static_cast<std::uint64_t>(job.seq.size());
  const std::uint64_t width = m - static_cast<std::uint64_t>(job.r0);
  // Rows restored from a checkpoint are never computed; leaving them out
  // keeps cells/sec an honest throughput number.
  const std::uint64_t resumed_rows =
      (job.resume != nullptr && supports_checkpoints())
          ? static_cast<std::uint64_t>(job.resume->row)
          : 0;
  cells_ += (static_cast<std::uint64_t>(job.r0 + job.count - 1) -
             resumed_rows) *
            width * static_cast<std::uint64_t>(lanes());
}

std::vector<Score> Engine::align_one(const GroupJob& job) {
  REPRO_CHECK(job.count == 1);
  const int m = static_cast<int>(job.seq.size());
  std::vector<Score> row(static_cast<std::size_t>(m - job.r0));
  std::span<Score> row_span(row);
  align(job, std::span<const std::span<Score>>(&row_span, 1));
  return row;
}

bool avx2_available() {
#if REPRO_ENABLE_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

namespace {

/// The i16 kinds below AVX2: SSE2 registers, else portable lanes.
std::unique_ptr<Engine> make_i16_engine(int lanes) {
#if REPRO_HAVE_SSE2
  return detail::make_simd_engine(lanes);
#else
  return detail::make_simd_generic_engine(lanes);
#endif
}

}  // namespace

std::unique_ptr<Engine> make_engine(EngineKind kind) {
  switch (kind) {
    case EngineKind::kScalar:
      return detail::make_scalar_engine();
    case EngineKind::kScalarStriped:
      return detail::make_scalar_striped_engine();
    case EngineKind::kGeneralGap:
      return detail::make_general_gap_engine();
    case EngineKind::kSimd4:
      return make_i16_engine(4);
    case EngineKind::kSimd8:
      return make_i16_engine(8);
    case EngineKind::kSimd16:
#if REPRO_ENABLE_AVX2
      if (avx2_available()) return detail::make_simd_avx2_engine();
#endif
      return make_i16_engine(16);
    case EngineKind::kSimd8x32:
#if REPRO_ENABLE_AVX2
      if (avx2_available()) return detail::make_simd_avx2_32_engine();
#endif
      return detail::make_simd32_generic_engine(8);
    case EngineKind::kSimd4x32Generic:
      return detail::make_simd32_generic_engine(4);
    case EngineKind::kSimdAuto:
#if REPRO_ENABLE_AVX2
      if (avx2_available()) return detail::make_adaptive_avx2_engine();
#endif
#if REPRO_HAVE_SSE2
      return detail::make_adaptive_sse2_engine();
#else
      return detail::make_adaptive_generic_engine();
#endif
  }
  REPRO_CHECK_MSG(false, "unknown engine kind");
  return nullptr;  // unreachable
}

bool precision_fits(Precision precision, int m, const seq::Scoring& scoring) {
  if (precision == Precision::kI32 || precision == Precision::kAdaptive)
    return true;
  // Largest rectangle: min(r, m-r) residue pairs, maximized at r = m/2;
  // gaps only subtract, so this bounds every reachable score.
  const std::int64_t bound =
      static_cast<std::int64_t>(m / 2) * scoring.matrix.max_score();
  if (precision == Precision::kI16) {
    // 32766, not 32767: a peak of exactly INT16_MAX is indistinguishable
    // from a clamped add, so the kernels report it as saturated.
    return bound <= std::numeric_limits<std::int16_t>::max() - 1;
  }
  // kI8: the biased profile entries and the (cast) gap penalties must fit a
  // byte, and the score bound must leave one biased add of headroom below
  // the u8 ceiling (the kernel's certification limit).
  const int bias = std::max(0, -scoring.matrix.min_score());
  const int max_entry = scoring.matrix.max_score();
  if (bias + max_entry > 255 || scoring.gap.open > 255 ||
      scoring.gap.extend > 255)
    return false;
  return bound <= 255 - bias - max_entry;
}

EngineFactory engine_factory(EngineKind kind) {
  return [kind] { return make_engine(kind); };
}

}  // namespace repro::align
