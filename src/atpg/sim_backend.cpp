#include "atpg/sim_backend.hpp"

#include <cstdlib>

#include "atpg/packed_sim.hpp"
#include "atpg/sim_kernels.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace scanpower {

namespace {

bool cpu_supports(SimBackend b) {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  switch (b) {
    case SimBackend::Avx2:
      return __builtin_cpu_supports("avx2") != 0;
    case SimBackend::Avx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
    default:
      return true;
  }
#else
  return b != SimBackend::Avx2 && b != SimBackend::Avx512;
#endif
}

/// SCANPOWER_FORCE_BACKEND, parsed once. Auto (the default) = unset or
/// unparseable; the variable only steers Auto-configured engines, so CI
/// can force a backend under the full test suite without breaking tests
/// that configure one explicitly.
SimBackend forced_backend() {
  static const SimBackend forced = [] {
    const char* env = std::getenv("SCANPOWER_FORCE_BACKEND");
    SimBackend b = SimBackend::Auto;
    if (env != nullptr && env[0] != '\0') {
      if (!parse_backend(env, &b)) b = SimBackend::Auto;
    }
    return b;
  }();
  return forced;
}

}  // namespace

const char* backend_name(SimBackend b) {
  switch (b) {
    case SimBackend::Auto: return "auto";
    case SimBackend::Scalar: return "scalar";
    case SimBackend::Avx2: return "avx2";
    case SimBackend::Avx512: return "avx512";
  }
  return "?";
}

bool parse_backend(const std::string& s, SimBackend* out) {
  for (SimBackend b : {SimBackend::Auto, SimBackend::Scalar, SimBackend::Avx2,
                       SimBackend::Avx512}) {
    if (s == backend_name(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

bool backend_compiled(SimBackend b) {
  switch (b) {
    case SimBackend::Auto:
    case SimBackend::Scalar:
      return true;
    case SimBackend::Avx2:
      return avx2_sim_kernels() != nullptr;
    case SimBackend::Avx512:
      return avx512_sim_kernels() != nullptr;
  }
  return false;
}

bool backend_available(SimBackend b) {
  return backend_compiled(b) && cpu_supports(b);
}

SimBackend detect_best_backend() {
  if (backend_available(SimBackend::Avx512)) return SimBackend::Avx512;
  if (backend_available(SimBackend::Avx2)) return SimBackend::Avx2;
  return SimBackend::Scalar;
}

SimBackend resolve_backend(SimBackend req, int words) {
  check_block_width("resolve_backend", words, "words");
  if (req != SimBackend::Auto) {
    SP_CHECK(backend_available(req),
             strprintf("backend '%s' is not available on this host%s",
                       backend_name(req),
                       backend_compiled(req)
                           ? " (CPU lacks the required features)"
                           : " (library built without its kernels)"));
    return req;
  }
  const SimBackend forced = forced_backend();
  if (forced != SimBackend::Auto && backend_available(forced)) return forced;
  return detect_best_backend();
}

const SimKernels& sim_kernels(SimBackend resolved) {
  const SimKernels* k = nullptr;
  switch (resolved) {
    case SimBackend::Scalar: k = scalar_sim_kernels(); break;
    case SimBackend::Avx2: k = avx2_sim_kernels(); break;
    case SimBackend::Avx512: k = avx512_sim_kernels(); break;
    case SimBackend::Auto: break;
  }
  SP_ASSERT(k != nullptr, "sim_kernels on an unresolved or absent backend");
  return *k;
}

}  // namespace scanpower
