#pragma once
// Shared helpers for the example command-line front ends (diag_cli,
// diag_server, flow_cli, min_leakage_vector): uniform "--flag <value>"
// parsing, so every CLI agrees on conventions instead of each
// re-implementing its own strcmp/atoi ladder. Designs load through the
// library's load_design() (techmap/techmap.hpp), which the diagnosis
// service uses too.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "atpg/sim_backend.hpp"
#include "util/log.hpp"

namespace scanpower::cli {

/// Parses a --log-level value; a bad name is a fatal usage error.
inline LogLevel parse_log_level(const char* v) {
  if (std::strcmp(v, "debug") == 0) return LogLevel::Debug;
  if (std::strcmp(v, "info") == 0) return LogLevel::Info;
  if (std::strcmp(v, "warn") == 0) return LogLevel::Warn;
  if (std::strcmp(v, "error") == 0) return LogLevel::Error;
  if (std::strcmp(v, "off") == 0) return LogLevel::Off;
  std::fprintf(stderr,
               "error: --log-level must be debug, info, warn, error or off "
               "(got \"%s\")\n",
               v);
  std::exit(2);
}

/// True iff argv[i] is exactly `name` (a value-less flag).
inline bool flag(char** argv, int i, const char* name) {
  return std::strcmp(argv[i], name) == 0;
}

/// Matches "--name <value>": when argv[i] equals `name` the value is
/// consumed (advancing `i`) and stored in `out`. A trailing flag with no
/// value is a fatal usage error -- legacy parsers silently fell through
/// to the generic usage message.
inline bool value_flag(int argc, char** argv, int& i, const char* name,
                       const char*& out) {
  if (std::strcmp(argv[i], name) != 0) return false;
  if (i + 1 >= argc) {
    std::fprintf(stderr, "error: %s requires a value\n", name);
    std::exit(2);
  }
  out = argv[++i];
  return true;
}

/// Numeric "--name <value>": the whole value must parse as a T (no
/// trailing bytes, no sign for unsigned T); anything else is a fatal
/// usage error instead of atoi-style prefix parsing ("4x" is not 4).
template <class T>
  requires std::is_arithmetic_v<T>
inline bool value_flag(int argc, char** argv, int& i, const char* name,
                       T& out) {
  const char* v = nullptr;
  if (!value_flag(argc, argv, i, name, v)) return false;
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, out);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "error: %s needs a number (got \"%s\")\n", name, v);
    std::exit(2);
  }
  return true;
}

/// Matches "--name <backend>" (auto/scalar/avx2/avx512); a bad name
/// is a fatal usage error listing the valid ones.
inline bool backend_flag(int argc, char** argv, int& i, const char* name,
                         SimBackend& out) {
  const char* v = nullptr;
  if (!value_flag(argc, argv, i, name, v)) return false;
  if (!parse_backend(v, &out)) {
    std::fprintf(stderr,
                 "error: %s must be auto, scalar, avx2 or avx512 "
                 "(got \"%s\")\n",
                 name, v);
    std::exit(2);
  }
  return true;
}

/// Hexadecimal variant of value_flag (e.g. --misr-poly).
inline bool hex_value_flag(int argc, char** argv, int& i, const char* name,
                           std::uint64_t& out) {
  const char* v = nullptr;
  if (!value_flag(argc, argv, i, name, v)) return false;
  out = std::strtoull(v, nullptr, 16);
  return true;
}

}  // namespace scanpower::cli
