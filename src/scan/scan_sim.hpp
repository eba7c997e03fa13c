#pragma once
// Test-per-scan shift-power simulation.
//
// Protocol (full scan, one chain, no reordering -- as in the paper's
// experiments): for each test vector, L shift cycles move the stimulus in
// while the previous response moves out; one capture cycle follows. The
// combinational part is evaluated at every shift cycle and folded into a
// PowerEstimator, yielding exactly the two Table-I quantities: dynamic
// power per Hz and static (leakage) power, both for the combinational
// logic.
//
// Evaluation is packed. Once the chain contents are known, shift cycles
// do not depend on each other: every pattern's capture response comes
// from one ternary sweep (one pattern per lane), and then 64*W
// consecutive observed cycles are the lanes of one TernaryBlockSimulator
// sweep, streamed block by block. Per lane, leakage comes from
// PackedLeakageEvaluator's 3-valued path and toggled capacitance from an
// XOR of the lane's planes against the previous lane (the first lane of
// a block against the previous block's last lane). Each lane sums gates
// in ascending id and cycles fold in cycle order through
// PowerEstimator::fold_cycle, so every result is bit-identical to a
// cycle-by-cycle scalar simulation through PowerEstimator::observe.
//
// Scan-mode input control is expressed per method:
//  - traditional scan  : PIs hold the previous test's values; every cell's
//    Q drives the logic directly.
//  - input control [8] : PIs are driven with a blocking pattern during
//    shift; cells drive the logic directly.
//  - proposed          : PIs driven with the found pattern AND muxed cells
//    present constants to the logic during shift.

#include <span>
#include <vector>

#include "atpg/pattern.hpp"
#include "netlist/netlist.hpp"
#include "power/power_est.hpp"
#include "scan/add_mux.hpp"
#include "scan/reorder.hpp"
#include "sim/logic.hpp"

namespace scanpower {

struct ScanPowerResult {
  double dynamic_per_hz_uw = 0.0;  ///< multiply by f for absolute power
  double static_uw = 0.0;
  double mean_toggled_cap_ff = 0.0;
  double mean_leakage_na = 0.0;
  double peak_dynamic_per_hz_uw = 0.0;  ///< worst single shift cycle
  double peak_leakage_na = 0.0;
  std::size_t cycles = 0;          ///< observed clock cycles
};

struct ScanSimOptions {
  /// Include the capture cycle (shift-enable low) in the power average.
  /// It is identical across methods; the paper's scan-mode framing is
  /// shift-only, so the default is off.
  bool include_capture_cycles = false;
  /// Chain state before the first pattern is shifted in.
  Logic initial_state = Logic::Zero;
  /// Optional scan-cell ordering (chain position -> dffs() index); null =
  /// netlist order, i.e. the paper's "no scan cell reordering" setup.
  const ScanChainOrder* chain_order = nullptr;
  /// Number of parallel scan chains. Cells are dealt round-robin over the
  /// (possibly reordered) position sequence; all chains shift together
  /// for ceil(L / num_chains) cycles per pattern, shorter chains padded
  /// with leading zero bits. 1 = the paper's single-chain setup.
  int num_chains = 1;
};

/// The multi-chain shift protocol as a function of time. Chain position p
/// belongs to chain p % k at in-chain index p / k; all k chains shift
/// together for cycles() = ceil(L/k) cycles, shorter chains padded with
/// leading zero bits so every cell lands on its bit. After s shifts,
/// position p holds
///   prev[p - s*k]            when p >= s*k (old content moving on), else
///   image[p + (L' - s)*k]    with L' = cycles(), 0 past the chain end,
/// where prev is the chain content before the first shift and image the
/// fully loaded chain. Both cases read one per-pattern stream -- image
/// zero-padded to L'*k positions, then prev -- so shift cycle s sees the
/// window of L positions starting at offset(s).
class ShiftProtocol {
 public:
  /// `order` must outlive the protocol.
  ShiftProtocol(const ScanChainOrder& order, int num_chains);

  /// Shift cycles per pattern.
  std::size_t cycles() const { return cycles_; }
  /// Stream offset of the window seen after `s` shifts, 1 <= s <= cycles().
  std::size_t offset(std::size_t s) const { return (cycles_ - s) * k_; }

  /// Fills `stream` for shifting `ppi` (cell-indexed, dffs() order) into
  /// a chain holding `prev` (position-indexed): size cycles()*k + L.
  void build_stream(std::span<const Logic> ppi, std::span<const Logic> prev,
                    std::vector<Logic>& stream) const;

 private:
  const ScanChainOrder* order_;
  std::size_t k_;
  std::size_t cycles_;
};

/// Pure chain-register model of the multi-chain shift protocol: starting
/// from `initial`, shifts `ppi` (cell-indexed, remapped through `order`)
/// into `num_chains` parallel chains for ceil(L/num_chains) cycles and
/// returns the final position-indexed chain state. A view over
/// ShiftProtocol, the sequence the power evaluator drives.
std::vector<Logic> simulate_chain_loading(const ScanChainOrder& order,
                                          std::span<const Logic> ppi,
                                          int num_chains,
                                          Logic initial = Logic::Zero);

class ScanPowerEvaluator {
 public:
  /// Builds the netlist's GateLeakageTables; `nl` and the models must
  /// outlive the evaluator.
  ScanPowerEvaluator(const Netlist& nl, const LeakageModel& leakage,
                     const CapacitanceModel& caps, PowerConfig config = {});

  /// Runs the whole test session.
  /// `pi_control`: per-PI value driven during shift; X = hold the
  ///   previously applied test's PI value (traditional-scan behaviour).
  /// `mux_control`: per-DFF constant presented during shift; X = the cell
  ///   is not multiplexed (its chain bit drives the logic).
  /// Sizes must match inputs()/dffs(); pass empty spans for all-X.
  ScanPowerResult evaluate(const TestSet& tests,
                           std::span<const Logic> pi_control = {},
                           std::span<const Logic> mux_control = {},
                           const ScanSimOptions& opts = {});

 private:
  const Netlist* nl_;
  const LeakageModel* leakage_;
  const CapacitanceModel* caps_;
  PowerConfig config_;
  GateLeakageTables tables_;
};

}  // namespace scanpower
