// AVX-512 backend (needs F/BW/DQ/VL, i.e. the Skylake-X family subset).
// Same isolation rules as the AVX2 TU: everything is anonymous-namespace,
// per-source COMPILE_OPTIONS, nullptr accessor when not compiled in.
//
// W = 4 runs one 256-bit vector per gate block (the AVX2 kernels of
// sim_kernels_vec.inc, compiled with VL); W = 1/2 use the generic bodies.
// The leakage gather indexes 8 lanes per vpgatherqpd. obs_reduce keeps
// the 4-accumulator *definition* of the reduction -- a 512-bit 8-lane
// accumulator would change the addition interleave and break
// bit-identity -- so it runs the same 256-bit masked-add kernel as AVX2
// (with AVX-512 maskz loads).

#include "atpg/sim_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

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

#include "atpg/sim_kernels_vec.inc"

void eval_full(const Netlist& nl, PatternWord* values, int words) {
  switch (words) {
    case 1: eval_full_impl<1>(nl, values); break;
    case 2: eval_full_impl<2>(nl, values); break;
    case 4: eval_full_vec4(nl, values); break;
    default: SP_ASSERT(false, "avx512 backend: unsupported block width");
  }
}

void eval_ternary(const Netlist& nl, PatternWord* p1, PatternWord* p0,
                  int words) {
  switch (words) {
    case 1: eval_ternary_impl<1>(nl, p1, p0); break;
    case 2: eval_ternary_impl<2>(nl, p1, p0); break;
    case 4: eval_ternary_vec4(nl, p1, p0); break;
    default: SP_ASSERT(false, "avx512 backend: unsupported block width");
  }
}

// The shift and gather below use the all-lanes-masked forms with a zero
// pass-through. With every lane enabled they compute exactly what the
// unmasked forms do, but GCC's headers build the unmasked ones on an
// undefined pass-through vector, which GCC 12 flags as uninitialized.
void leak_gather(const double* table, unsigned base, const PatternWord* src,
                 int k, double* leak64) {
  constexpr __mmask8 kAll = 0xFF;
  const __m512i lane0 = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i vbase = _mm512_set1_epi64(static_cast<long long>(base));
  for (int i = 0; i < 64; i += 8) {
    const __m512i lanes = _mm512_add_epi64(lane0, _mm512_set1_epi64(i));
    __m512i idx = vbase;
    for (int j = 0; j < k; ++j) {
      __m512i bits = _mm512_maskz_srlv_epi64(
          kAll, _mm512_set1_epi64(static_cast<long long>(src[j])), lanes);
      bits = _mm512_and_si512(bits, one);
      idx = _mm512_or_si512(
          idx, _mm512_maskz_slli_epi64(kAll, bits, static_cast<unsigned>(j)));
    }
    const __m512d vals = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), kAll,
                                                  idx, table, 8);
    _mm512_storeu_pd(leak64 + i,
                     _mm512_add_pd(_mm512_loadu_pd(leak64 + i), vals));
  }
}

void obs_reduce(const PatternWord* v, const PatternWord* valid,
                const double* leak, int words, double* s1, std::uint32_t* c1) {
  __m256d acc = _mm256_setzero_pd();
  std::uint32_t cnt = 0;
  for (int w = 0; w < words; ++w) {
    const PatternWord bits = v[w] & valid[w];
    cnt += static_cast<std::uint32_t>(std::popcount(bits));
    if (bits == 0) continue;
    const double* const lw = leak + static_cast<std::size_t>(w) * 64;
    for (int i = 0; i < 64; i += 4) {
      const __mmask8 m = static_cast<__mmask8>((bits >> i) & 0xF);
      acc = _mm256_add_pd(acc, _mm256_maskz_loadu_pd(m, lw + i));
    }
  }
  double a[4];
  _mm256_storeu_pd(a, acc);
  *s1 = ((a[0] + a[1]) + a[2]) + a[3];
  *c1 = cnt;
}

const SimKernels kTable = {
    SimBackend::Avx512, &eval_full,   &eval_ternary,
    &cone_sweep_impl,   &leak_gather, &obs_reduce,
};

}  // namespace

const SimKernels* avx512_sim_kernels() { return &kTable; }

}  // namespace scanpower

#else  // !AVX-512 F/BW/DQ/VL

namespace scanpower {
const SimKernels* avx512_sim_kernels() { return nullptr; }
}  // namespace scanpower

#endif
