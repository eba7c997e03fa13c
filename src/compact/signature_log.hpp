#pragma once
// Compacted tester logs: per-window expected vs observed MISR signatures.
//
// SignatureLog is the compaction-era analogue of FailureLog: instead of
// per-(pattern, point) failures the tester reports one signature per
// window of patterns, alongside the fault-free expected signature. The
// text format is self-contained (it records the MISR configuration), so
// a log can be diagnosed later without out-of-band knowledge of the
// compactor -- only the pattern set must be reproduced, exactly like the
// failure-log flow.
//
// SignatureCapture is the synthetic tester: it captures the good-machine
// response, builds the deterministic X-mask plan from the pattern set,
// and injects a stuck-at fault to produce the SignatureLog a MISR-based
// tester would record for that defective chip. By MISR linearity the
// observed signature is expected ^ sig(response diff), so injection
// reuses ResponseCapture's packed faulty-machine sweep.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/pattern.hpp"
#include "compact/misr.hpp"
#include "compact/xmask.hpp"
#include "diag/response.hpp"
#include "netlist/netlist.hpp"

namespace scanpower {

struct SignatureLog {
  std::string circuit;
  std::size_t num_patterns = 0;
  MisrConfig misr;                      ///< poly stored resolved
  std::vector<std::uint64_t> expected;  ///< per window, fault-free
  std::vector<std::uint64_t> observed;  ///< per window, as the tester saw

  std::size_t num_windows() const { return expected.size(); }
  bool window_fails(std::size_t w) const { return expected[w] != observed[w]; }
  std::size_t num_failing_windows() const;
};

/// Plain-text signature-log format:
///   # comments
///   circuit <name>
///   patterns <n>
///   misr <width> <poly-hex> <window>
///   windows <count>
///   sig <window> <expected-hex> <observed-hex>
/// Every window index in [0, count) must appear exactly once; load
/// re-sorts, so a second save is byte-identical to the first.
void save_signature_log(std::ostream& out, const SignatureLog& log);
SignatureLog load_signature_log(std::istream& in);
void save_signature_log_file(const std::string& path, const SignatureLog& log);
SignatureLog load_signature_log_file(const std::string& path);

/// Synthetic MISR tester: expected signatures, X-mask plan and fault
/// injection for one pattern set.
class SignatureCapture {
 public:
  explicit SignatureCapture(const Netlist& nl, MisrConfig cfg = {},
                            SimBackend backend = SimBackend::Auto);

  const MisrConfig& config() const { return cfg_; }
  const ObservationPoints& points() const { return capture_.points(); }

  /// Binds a pattern set: zero-fills X bits for the binary response
  /// sweep, captures the good-machine signatures and builds the X-mask
  /// plan. inject() binds implicitly; a pattern set equal to the bound
  /// one (compared by content) reuses the cached capture.
  void bind(std::span<const TestPattern> patterns);

  /// Valid after bind()/inject().
  const XMaskPlan& mask() const { return mask_; }
  const std::vector<std::uint64_t>& expected() const { return expected_; }

  /// The signature log a MISR tester records for a chip carrying exactly
  /// fault `f` under `patterns`.
  SignatureLog inject(std::span<const TestPattern> patterns, const Fault& f);

  /// Multi-fault analogue: the signature log of a chip carrying every
  /// fault in `faults` simultaneously (exact k-fault simulation via
  /// ResponseCapture's multi-fault sweep, compacted through linearity).
  SignatureLog inject(std::span<const TestPattern> patterns,
                      std::span<const Fault> faults);

 private:
  std::span<const TestPattern> effective_patterns() const {
    return filled_.empty() ? std::span<const TestPattern>(bound_)
                           : std::span<const TestPattern>(filled_);
  }

  const Netlist* nl_;
  MisrConfig cfg_;
  SimBackend backend_ = SimBackend::Auto;
  ResponseCapture capture_;
  MisrCompactor compactor_;

  bool bound_valid_ = false;
  std::vector<TestPattern> bound_;   ///< copy of the bound pattern set
  std::vector<TestPattern> filled_;  ///< X zero-filled copy; empty if not needed
  XMaskPlan mask_;
  std::vector<std::uint64_t> expected_;
};

}  // namespace scanpower
