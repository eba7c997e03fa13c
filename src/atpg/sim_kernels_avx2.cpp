// AVX2 backend. This TU is the only place AVX2 intrinsics (or code
// compiled with -mavx2) may live; CMake gives it per-source
// COMPILE_OPTIONS and everything below sits in an anonymous namespace, so
// no AVX2 code has external linkage and the portable build path can never
// pull it in. When the compiler does not provide __AVX2__ here (SIMD off,
// non-x86 host) the TU degrades to a nullptr accessor.
//
// Kernels:
//   eval_full / eval_ternary  -- 256-bit gate kernels for W = 4/8 (one or
//       two __m256i per gate block); W = 1/2 fall back to the generic
//       bodies recompiled in this TU. Pure bitwise -> bit-identical.
//   cone_sweep                -- generic body (sparse and branchy; the
//       win is in the full evaluations), recompiled with -mavx2.
//   leak_gather               -- per-lane state assembly with variable
//       shifts + vpgatherqpd, 4 lanes at a time; one add per lane keeps
//       the scalar accumulation order exactly.
//   obs_reduce                -- vertical masked adds into one __m256d
//       whose lane l IS acc[l] of the reduction's 4-accumulator
//       definition; masked lanes add an exact +0.0, the final fold runs
//       in the defined order. Bit-identical by construction.

#include "atpg/sim_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "atpg/packed_sim.hpp"
#include "util/assert.hpp"

namespace scanpower {
namespace {

#include "atpg/sim_kernels_impl.inc"

struct Ops256 {
  using V = __m256i;
  static constexpr int kWordsPerVec = 4;
  static V load(const PatternWord* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(PatternWord* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V zeros() { return _mm256_setzero_si256(); }
  static V ones() { return _mm256_set1_epi64x(-1); }
  static V vand(V a, V b) { return _mm256_and_si256(a, b); }
  static V vor(V a, V b) { return _mm256_or_si256(a, b); }
  static V vxor(V a, V b) { return _mm256_xor_si256(a, b); }
  static V vnot(V a) { return _mm256_xor_si256(a, ones()); }
  static V vandnot(V a, V b) { return _mm256_andnot_si256(a, b); }
};

#include "atpg/sim_kernels_vec.inc"

void eval_full(const Netlist& nl, PatternWord* values, int words) {
  switch (words) {
    case 1: eval_full_impl<1>(nl, values); break;
    case 2: eval_full_impl<2>(nl, values); break;
    case 4: eval_full_vec<Ops256, 1>(nl, values); break;
    case 8: eval_full_vec<Ops256, 2>(nl, values); break;
    default: SP_ASSERT(false, "avx2 backend: unsupported block width");
  }
}

void eval_ternary(const Netlist& nl, PatternWord* p1, PatternWord* p0,
                  int words) {
  switch (words) {
    case 1: eval_ternary_impl<1>(nl, p1, p0); break;
    case 2: eval_ternary_impl<2>(nl, p1, p0); break;
    case 4: eval_ternary_vec<Ops256, 1>(nl, p1, p0); break;
    case 8: eval_ternary_vec<Ops256, 2>(nl, p1, p0); break;
    default: SP_ASSERT(false, "avx2 backend: unsupported block width");
  }
}

void cone_sweep(ConeSweepArgs& a, int words) {
  dispatch_words(words,
                 [&](auto w) { cone_sweep_impl<decltype(w)::value>(a); });
}

void leak_gather(const double* table, unsigned base, const PatternWord* src,
                 int k, double* leak64) {
  const __m256i lane0 = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i vbase = _mm256_set1_epi64x(static_cast<long long>(base));
  for (int i = 0; i < 64; i += 4) {
    const __m256i lanes = _mm256_add_epi64(lane0, _mm256_set1_epi64x(i));
    __m256i idx = vbase;
    for (int j = 0; j < k; ++j) {
      __m256i bits = _mm256_srlv_epi64(
          _mm256_set1_epi64x(static_cast<long long>(src[j])), lanes);
      bits = _mm256_and_si256(bits, one);
      idx = _mm256_or_si256(idx, _mm256_slli_epi64(bits, j));
    }
    const __m256d vals = _mm256_i64gather_pd(table, idx, 8);
    _mm256_storeu_pd(leak64 + i,
                     _mm256_add_pd(_mm256_loadu_pd(leak64 + i), vals));
  }
}

void obs_reduce(const PatternWord* v, const PatternWord* valid,
                const double* leak, int words, double* s1, std::uint32_t* c1) {
  const __m256i sel0 = _mm256_setr_epi64x(1, 2, 4, 8);
  __m256d acc = _mm256_setzero_pd();
  std::uint32_t cnt = 0;
  for (int w = 0; w < words; ++w) {
    const PatternWord bits = v[w] & valid[w];
    cnt += static_cast<std::uint32_t>(std::popcount(bits));
    if (bits == 0) continue;
    const double* const lw = leak + static_cast<std::size_t>(w) * 64;
    const __m256i vbits = _mm256_set1_epi64x(static_cast<long long>(bits));
    for (int i = 0; i < 64; i += 4) {
      const __m256i sel = _mm256_slli_epi64(sel0, i);
      const __m256d mask = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(vbits, sel), sel));
      acc = _mm256_add_pd(acc,
                          _mm256_and_pd(_mm256_loadu_pd(lw + i), mask));
    }
  }
  double a[4];
  _mm256_storeu_pd(a, acc);
  *s1 = ((a[0] + a[1]) + a[2]) + a[3];
  *c1 = cnt;
}

const SimKernels kTable = {
    SimBackend::Avx2, &eval_full,   &eval_ternary,
    &cone_sweep,      &leak_gather, &obs_reduce,
};

}  // namespace

const SimKernels* avx2_sim_kernels() { return &kTable; }

}  // namespace scanpower

#else  // !__AVX2__

namespace scanpower {
const SimKernels* avx2_sim_kernels() { return nullptr; }
}  // namespace scanpower

#endif
