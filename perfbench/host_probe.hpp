// Host-speed probe: a fixed loop shaped like the alignment kernel's sweep.
//
// The 4 vCPUs of a shared host do not run at one speed: other tenants'
// load on the same physical cores slows an L2-bound SIMD loop by up to
// 1.6x, and the slow spells last from seconds to minutes. A finder call's
// wall time moves with them. The probe is timed on the same cores right
// before and right after each call, so a metric can be given in multiples
// of the probe's time, which cancels most of that drift. The probe is
// benchmark code and calls nothing in reprolib, so a change to the library
// cannot move it.
//
// A probe sweeps two rows of 3000 32-byte lane vectors (192 KiB, resident
// in L2 like the kernel's H/E rows at m = 3000) with saturating u8
// arithmetic, a query-profile lookup per cell, a carried dependency along
// the row, and two stores per cell. It times five pieces of 600 sweeps
// and keeps the fastest: a descheduled vCPU stalls one piece for tens of
// milliseconds, which would double a short probe's time but adds little
// to a second-long finder call, while the slowdown from other tenants'
// load lasts longer than a probe and shows in every piece.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace perfbench {

namespace probe_detail {

constexpr int kCells = 3000;    ///< row length
constexpr int kSweeps = 600;    ///< rows swept per timed piece
constexpr int kPieces = 5;      ///< timed pieces per probe
constexpr int kLanes = 32;      ///< bytes per lane vector
constexpr int kResidues = 24;   ///< profile rows

struct Buffers {
  std::vector<std::uint8_t> h, e, profile;
  std::vector<std::uint8_t> residues;

  Buffers()
      : h(kCells * kLanes, 0),
        e(kCells * kLanes, 0),
        profile(kResidues * kLanes),
        residues(kCells) {
    std::uint32_t x = 12345;
    const auto next = [&x] {
      x = x * 1664525u + 1013904223u;
      return x >> 24;
    };
    for (auto& p : profile) p = static_cast<std::uint8_t>(next() % 16);
    for (auto& r : residues) r = static_cast<std::uint8_t>(next() % kResidues);
  }
};

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) inline std::uint8_t sweep_avx2(Buffers& b) {
  auto* h = reinterpret_cast<__m256i*>(b.h.data());
  auto* e = reinterpret_cast<__m256i*>(b.e.data());
  const auto* prof = reinterpret_cast<const __m256i*>(b.profile.data());
  const __m256i open = _mm256_set1_epi8(11);
  const __m256i extend = _mm256_set1_epi8(1);
  const __m256i bias = _mm256_set1_epi8(4);
  for (int s = 0; s < kSweeps; ++s) {
    __m256i diag = _mm256_setzero_si256();
    __m256i f = _mm256_setzero_si256();
    for (int j = 0; j < kCells; ++j) {
      const __m256i hj = _mm256_loadu_si256(h + j);
      __m256i ej = _mm256_loadu_si256(e + j);
      const __m256i p = _mm256_loadu_si256(prof + b.residues[j]);
      __m256i hn = _mm256_subs_epu8(_mm256_adds_epu8(diag, p), bias);
      hn = _mm256_max_epu8(_mm256_max_epu8(hn, ej), f);
      const __m256i gap = _mm256_subs_epu8(hn, open);
      ej = _mm256_max_epu8(_mm256_subs_epu8(ej, extend), gap);
      f = _mm256_max_epu8(_mm256_subs_epu8(f, extend), gap);
      diag = hj;
      _mm256_storeu_si256(h + j, hn);
      _mm256_storeu_si256(e + j, ej);
    }
  }
  return b.h[kLanes * 7 + 3];
}
#endif

/// The same sweep one byte at a time, for hosts without AVX2.
inline std::uint8_t sweep_scalar(Buffers& b) {
  const auto sat = [](int v) {
    return static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
  };
  for (int s = 0; s < kSweeps; ++s) {
    std::uint8_t diag[kLanes] = {};
    std::uint8_t f[kLanes] = {};
    for (int j = 0; j < kCells; ++j) {
      std::uint8_t* hj = &b.h[static_cast<std::size_t>(j) * kLanes];
      std::uint8_t* ej = &b.e[static_cast<std::size_t>(j) * kLanes];
      const std::uint8_t* p =
          &b.profile[static_cast<std::size_t>(b.residues[j]) * kLanes];
      for (int l = 0; l < kLanes; ++l) {
        std::uint8_t hn = sat(sat(diag[l] + p[l]) - 4);
        hn = std::max({hn, ej[l], f[l]});
        const std::uint8_t gap = sat(hn - 11);
        ej[l] = std::max(sat(ej[l] - 1), gap);
        f[l] = std::max(sat(f[l] - 1), gap);
        diag[l] = hj[l];
        hj[l] = hn;
      }
    }
  }
  return b.h[kLanes * 7 + 3];
}

inline std::uint8_t sweep(Buffers& b) {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return sweep_avx2(b);
#endif
  return sweep_scalar(b);
}

}  // namespace probe_detail

/// Seconds the fastest probe piece takes on the calling thread's current
/// core.
inline double probe_seconds() {
  probe_detail::Buffers b;  // allocated and touched before the clock starts
  double best = 0.0;
  for (int p = 0; p < probe_detail::kPieces; ++p) {
    const auto t0 = std::chrono::steady_clock::now();
    volatile std::uint8_t sink = probe_detail::sweep(b);
    (void)sink;
    const std::chrono::duration<double> secs =
        std::chrono::steady_clock::now() - t0;
    best = p == 0 ? secs.count() : std::min(best, secs.count());
  }
  return best;
}

/// Mean probe time over the given cores, probed at the same time, one
/// pinned thread per core: the speed a call that uses all of them sees.
inline double probe_seconds_on(const std::vector<int>& cores) {
  std::vector<double> secs(cores.size(), 0.0);
  {
    std::vector<std::jthread> threads;
    threads.reserve(cores.size());
    for (std::size_t k = 0; k < cores.size(); ++k) {
      threads.emplace_back([&secs, &cores, k] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cores[k], &one);
        sched_setaffinity(0, sizeof one, &one);
        secs[k] = probe_seconds();
      });
    }
  }
  double sum = 0.0;
  for (double s : secs) sum += s;
  return secs.empty() ? probe_seconds() : sum / static_cast<double>(secs.size());
}

}  // namespace perfbench
