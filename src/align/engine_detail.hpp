// Internal helpers shared by engine implementations. Not part of the API.
#pragma once

#include <memory>
#include <span>

#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "util/check.hpp"

namespace repro::align::detail {

/// Validates a GroupJob against the engine's lane count and output spans.
inline void validate_job(const GroupJob& job,
                         std::span<const std::span<Score>> out, int lanes) {
  const int m = static_cast<int>(job.seq.size());
  REPRO_CHECK_MSG(m >= 2, "sequence too short to split");
  REPRO_CHECK(job.scoring != nullptr);
  REPRO_CHECK_MSG(job.count >= 1 && job.count <= lanes,
                  "group count " << job.count << " not in [1, " << lanes << "]");
  REPRO_CHECK_MSG(job.r0 >= 1 && job.r0 + job.count - 1 <= m - 1,
                  "splits [" << job.r0 << ", " << job.r0 + job.count - 1
                             << "] out of range for m=" << m);
  REPRO_CHECK(out.size() == static_cast<std::size_t>(job.count));
  for (int k = 0; k < job.count; ++k)
    REPRO_CHECK_MSG(out[static_cast<std::size_t>(k)].size() ==
                        static_cast<std::size_t>(m - (job.r0 + k)),
                    "output row " << k << " has wrong size");
  if (job.overrides != nullptr)
    REPRO_CHECK(job.overrides->sequence_length() == m);
}

/// Tests the override bit for pair (i, j) given row i's word array.
inline bool override_bit(const std::atomic<std::uint64_t>* row, int i, int j) {
  const std::int64_t b = j - i - 1;
  return ((row[b >> 6].load(std::memory_order_relaxed) >> (b & 63)) & 1) != 0;
}

// Per-ISA factories (defined in their respective translation units);
// make_engine picks among them. The generic-lane ones run everywhere, so
// tests call them to cross-check the portable kernels on any host.
std::unique_ptr<Engine> make_scalar_engine();
/// `stripe_cols`: 0 = the L1-sized default, -1 = whole rows.
std::unique_ptr<Engine> make_scalar_striped_engine(int stripe_cols = 0);
std::unique_ptr<Engine> make_general_gap_engine();
std::unique_ptr<Engine> make_simd_generic_engine(int lanes);
std::unique_ptr<Engine> make_simd32_generic_engine(int lanes);
std::unique_ptr<Engine> make_adaptive_generic_engine();
#if REPRO_HAVE_SSE2
std::unique_ptr<Engine> make_simd_engine(int lanes);
std::unique_ptr<Engine> make_adaptive_sse2_engine();
#endif
#if REPRO_ENABLE_AVX2
std::unique_ptr<Engine> make_simd_avx2_engine();
std::unique_ptr<Engine> make_simd_avx2_32_engine();
std::unique_ptr<Engine> make_adaptive_avx2_engine();
#endif

}  // namespace repro::align::detail
