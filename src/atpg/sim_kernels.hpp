#pragma once
// Per-backend kernel dispatch table for the packed engines.
//
// A SimKernels is a table of function pointers covering every hot loop of
// the packed stack; each backend (scalar / AVX2 / AVX-512) provides one
// table from its own translation unit, compiled with that backend's
// ISA flags (CMake sets per-source COMPILE_OPTIONS, so the rest of the
// library stays runnable on non-AVX hosts). All kernel implementations in
// the backend TUs live in anonymous namespaces: nothing compiled with
// -mavx* has external linkage, so no AVX code can be pulled into the
// portable build path by the linker.
//
// Every kernel is bit-identical to the scalar reference: the gate kernels
// are pure 64-bit bitwise logic (associativity is exact), the leakage
// gather preserves the per-lane, per-gate accumulation order, and the
// observability reduction is *defined* as a fixed four-accumulator lane
// interleave (see obs_reduce) in every backend including scalar, which is
// what lets the SIMD backends use vertical masked adds.

#include <cstddef>
#include <cstdint>

#include "atpg/sim_backend.hpp"
#include "netlist/netlist.hpp"

namespace scanpower {

using PatternWord = std::uint64_t;  // = packed_sim.hpp's PatternWord

/// Arguments of the sparse fault-cone sweep (the loop of
/// FaultConeEvaluator::propagate past the seeded site). All pointers are
/// borrowed; `good`/`faulty` are gate-major with kSweepWords
/// (packed_sim.hpp) words per gate.
struct ConeSweepArgs {
  const Netlist* nl = nullptr;
  const PatternWord* good = nullptr;  ///< good-machine values
  PatternWord* faulty = nullptr;      ///< faulty-machine scratch
  std::uint8_t* touched = nullptr;    ///< per-gate "differs from good"
  const GateId* cone = nullptr;       ///< level-sorted cone, site included
  std::size_t cone_size = 0;
  GateId site = 0;                    ///< skipped by the sweep (pre-seeded)
  const PatternWord* mask = nullptr;  ///< kSweepWords lane-validity words
  const std::uint8_t* observable = nullptr;  ///< per-gate observable flag
  /// Called for observable touched gates with a masked, nonzero
  /// difference block; returning false aborts the sweep.
  bool (*sink)(void* ctx, GateId g, const PatternWord* diff) = nullptr;
  void* sink_ctx = nullptr;
  GateId* active = nullptr;        ///< out: touched gates (capacity >= cone_size + 1)
  std::size_t active_count = 0;    ///< in: pre-seeded entries; out: total
  bool aborted = false;            ///< out: sink stopped the sweep
};

/// One backend's kernel table. Obtain through sim_kernels(); the `words`
/// arguments must be in kBlockWords (packed_sim.hpp), which every backend
/// supports.
struct SimKernels {
  SimBackend backend;

  /// Full levelized 2-valued evaluation: values is gate-major storage of
  /// `words` words per gate with sources pre-set (BlockSimulator::eval).
  void (*eval_full)(const Netlist& nl, PatternWord* values, int words);

  /// Full levelized 3-valued (Kleene) evaluation over the p1/p0 planes
  /// (TernaryBlockSimulator::eval).
  void (*eval_ternary)(const Netlist& nl, PatternWord* p1, PatternWord* p0,
                       int words);

  /// Sparse cone sweep at kSweepWords; see ConeSweepArgs.
  void (*cone_sweep)(ConeSweepArgs& a);

  /// Per-lane leakage table gather over one 64-lane word:
  ///   leak64[i] += table[base | state(i)],  state bit j of lane i =
  ///   (src[j] >> i) & 1,  for i in [0, 64).
  /// Accumulation order per lane is the gate walk order (the caller
  /// iterates gates), so per-lane sums stay bit-identical to the scalar
  /// walk in every backend.
  void (*leak_gather)(const double* table, unsigned base,
                      const PatternWord* src, int k, double* leak64);

  /// Monte-Carlo observability reduction over one gate's block: over all
  /// lanes i (ascending, across `words` words) with bit i of v set and
  /// valid, accumulate leak[i] into acc[i & 3] and count the lanes; then
  ///   *s1 = ((acc[0] + acc[1]) + acc[2]) + acc[3].
  /// This fixed interleave is the reduction's definition in every backend
  /// (masked lanes contribute an exact +0.0 in the vector backends).
  void (*obs_reduce)(const PatternWord* v, const PatternWord* valid,
                     const double* leak, int words, double* s1,
                     std::uint32_t* c1);
};

/// Per-backend tables. Scalar always exists; avx2/avx512 return
/// nullptr when their TU was compiled without the ISA (SCANPOWER_SIMD off,
/// non-x86 host, or the compiler lacks the flags).
const SimKernels* scalar_sim_kernels();
const SimKernels* avx2_sim_kernels();
const SimKernels* avx512_sim_kernels();

/// Table of a *resolved* backend (never Auto; must be compiled in).
const SimKernels& sim_kernels(SimBackend resolved);

}  // namespace scanpower
