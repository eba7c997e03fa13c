#pragma once
// SimBackend: the kernel-backend selector for the packed engines.
//
// Every hot loop of the packed stack (full/ternary block evaluation, the
// sparse fault-cone sweep, the per-lane leakage table gather and the
// Monte-Carlo observability reduction) is routed through a per-backend
// kernel table (see sim_kernels.hpp). Backends:
//
//   Scalar -- the portable word engine; always available and the
//             bit-exactness reference every other backend is checked
//             against.
//   Avx2   -- x86-64 AVX2 kernels (256-bit gate ops, vpgatherqq-style
//             table gathers, masked vertical observability adds).
//             Compiled only when CMake's SCANPOWER_SIMD finds -mavx2;
//             selected only when the running CPU reports AVX2.
//   Avx512 -- as Avx2 with 512-bit gate kernels; needs AVX-512 F/BW/DQ/VL.
//
// Every backend runs every block width in kBlockWords (packed_sim.hpp).
//
// Selection contract (the house determinism rule): every backend is
// bit-identical to Scalar for values, detection indices, rankings,
// suspect sets and observability/fill reductions at every block width and
// thread count, so backend choice -- like pool size -- is result-neutral.
//
// `Auto` resolves to the best available backend; the
// SCANPOWER_FORCE_BACKEND environment variable (scalar/avx2/avx512)
// overrides the detection for Auto-configured engines, falling back
// gracefully (never an error) when the forced backend is unavailable. An
// *explicitly* configured backend is a hard contract: resolve_backend
// throws Error if it is unavailable.

#include <string>

namespace scanpower {

enum class SimBackend : int {
  Auto = 0,  ///< best available backend (default)
  Scalar,    ///< portable reference word engine
  Avx2,      ///< x86-64 AVX2 kernels
  Avx512,    ///< x86-64 AVX-512 kernels
};

/// Stable lower-case name ("auto", "scalar", "avx2", "avx512").
const char* backend_name(SimBackend b);

/// Parses a backend name (as produced by backend_name); returns false on
/// an unknown name. Accepts "auto".
bool parse_backend(const std::string& s, SimBackend* out);

/// True if the backend's kernel TU was compiled with the required ISA
/// (CMake flag checks). Scalar is always compiled.
bool backend_compiled(SimBackend b);

/// True if the backend can run here: compiled and the CPU reports the
/// required features. Scalar is always available.
bool backend_available(SimBackend b);

/// Best available backend, ignoring the environment:
/// Avx512 > Avx2 > Scalar.
SimBackend detect_best_backend();

/// Resolves a requested backend for a block width (see the selection
/// contract above). Never returns Auto; the result is always available.
/// Throws Error for an invalid width or an explicit request that is
/// unavailable.
SimBackend resolve_backend(SimBackend req, int words);

}  // namespace scanpower
