#pragma once
// Diagnosis references built through the library's one construction
// path: a ScanSession bound to a pattern set. Header-only because every
// tests/*.cpp builds into its own executable.

#include <span>
#include <utility>

#include "core/session.hpp"

namespace scanpower {

/// Default FlowOptions except for the diagnosis engine's knobs.
inline FlowOptions diag_flow_options(const DiagnosisOptions& diag) {
  FlowOptions opts;
  opts.diag = diag;
  return opts;
}

/// One-shot diagnosis: a fresh session over `design` -- a Netlist (copied)
/// or a shared DesignContext (a tenant) -- bound to `patterns`, diagnosing
/// `evidence` once.
template <class Design>
DiagnosisResult diagnose_once(Design design,
                              std::span<const TestPattern> patterns,
                              const Evidence& evidence,
                              const DiagnosisOptions& diag = {}) {
  ScanSession session(std::move(design), diag_flow_options(diag));
  session.bind_patterns(patterns);
  return session.diagnose(evidence);
}

}  // namespace scanpower
