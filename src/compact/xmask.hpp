#pragma once
// Deterministic X-masking for response compaction.
//
// A MISR signature is only comparable when every compacted bit is
// predictable: one observation point whose good-machine value is unknown
// (X) poisons the whole window's signature. Patterns straight out of
// PODEM carry X on care-free inputs, so before compaction the tester
// masks (forces to 0) every observation point that can go X anywhere in
// a window -- the classic X-bounding scheme.
//
// XMaskPlan decides those points with a packed ternary sweep: the
// patterns are loaded into a TernaryBlockSimulator with their X bits
// preserved (one pattern per lane), and a point is masked in window `w`
// iff its observed gate evaluates to X for at least one pattern of `w`.
// The plan depends only on the pattern set, the netlist and the window
// size, so the plan a ScanSession's SignatureCapture builds for the
// synthetic tester is also the one it hands the diagnosis engine
// (SignatureDiagnoser).
//
// Points that are known for every pattern of a window pass through
// unmasked; fully specified pattern sets produce an empty plan without
// running the sweep.

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/pattern.hpp"
#include "diag/response.hpp"
#include "netlist/netlist.hpp"

namespace scanpower {

/// Copy of `patterns` with every X bit forced to 0 -- the canonical fill
/// for the binary response sweeps behind compaction (X-masking makes the
/// choice invisible: unmasked points are X-free by construction).
/// Returns an empty vector when all patterns are already fully specified
/// (callers keep using the original span).
std::vector<TestPattern> zero_filled_patterns(
    std::span<const TestPattern> patterns);

class XMaskPlan {
 public:
  /// Empty plan: nothing masked (the fully-specified fast path).
  XMaskPlan() = default;

  /// Ternary sweep over `patterns` (X bits preserved): point `op` is
  /// masked in window `w` iff its good-machine value is X for some
  /// pattern of `w`. `window` is the compaction window in patterns.
  XMaskPlan(const Netlist& nl, const ObservationPoints& points,
            std::span<const TestPattern> patterns, int window,
            int block_words = 4, SimBackend backend = SimBackend::Auto);

  std::size_t num_points() const { return num_points_; }
  std::size_t num_windows() const { return num_windows_; }
  std::size_t words_per_point() const { return words_per_point_; }

  /// Total masked (point, window) pairs; 0 for an empty plan.
  std::size_t num_masked() const { return num_masked_; }
  bool any_masked() const { return num_masked_ != 0; }

  bool masked(std::size_t op, std::size_t window) const {
    return any_masked() && masked_[op * num_windows_ + window] != 0;
  }

  /// Packed keep mask over patterns for point `op` (words_per_point()
  /// words): lane p is 1 iff `op` is unmasked in p's window. Returns
  /// nullptr for an empty plan (keep everything).
  const PatternWord* keep_row(std::size_t op) const {
    return any_masked() ? keep_.data() + op * words_per_point_ : nullptr;
  }

 private:
  std::size_t num_points_ = 0;
  std::size_t num_windows_ = 0;
  std::size_t words_per_point_ = 0;
  std::size_t num_masked_ = 0;
  std::vector<std::uint8_t> masked_;  ///< num_points x num_windows
  std::vector<PatternWord> keep_;     ///< num_points x words_per_point
};

}  // namespace scanpower
