#pragma once
// Combined dynamic + static power estimation over a sequence of circuit
// states (eq. (1) of the paper for dynamic, the leakage tables for static).
//
// Protocol: the caller feeds every per-cycle value vector into observe(),
// or -- when it computes a cycle's toggles and leakage itself, as the
// packed scan-shift evaluator does -- the two per-cycle figures into
// fold_cycle(). observe() is fold_cycle() over a scalar walk, so both
// paths produce the same doubles. The estimator accumulates
//   - weighted toggles: sum over cycles of sum(C_L over toggled gates)
//   - leakage samples : per-cycle total leakage current
// and reports
//   - dynamic_per_hz_uw(): (1/2) VDD^2 * mean toggled capacitance  [uW/Hz]
//   - static_uw()        : VDD * mean leakage current              [uW]
// matching the two columns of Table I ("values in the dynamic columns must
// be multiplied by the working frequency").

#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "power/leakage_model.hpp"
#include "sim/logic.hpp"
#include "sim/toggles.hpp"
#include "timing/delay_model.hpp"

namespace scanpower {

struct PowerConfig {
  double vdd = 0.9;  ///< supply voltage (paper: 45 nm at 0.9 V)
};

class PowerEstimator {
 public:
  PowerEstimator(const Netlist& nl, const LeakageModel& leakage,
                 const CapacitanceModel& caps, PowerConfig config = {});

  /// Records one clock cycle's settled value vector (size = num_gates).
  /// The first observation initializes toggle counting; every observation
  /// contributes one leakage sample.
  void observe(std::span<const Logic> values);

  /// Records one clock cycle from its precomputed figures:
  /// `toggled_cap_ff` is the weighted toggle sum against the previous
  /// observed cycle (as weighted_toggles computes it; ignored for the
  /// first cycle) and `leakage_na` the cycle's circuit leakage.
  void fold_cycle(double toggled_cap_ff, double leakage_na);

  /// Mean toggled load capacitance per cycle (fF). Zero until two
  /// observations have been made.
  double mean_toggled_cap_ff() const {
    return transitions_ ? toggle_total_ff_ / static_cast<double>(transitions_)
                        : 0.0;
  }

  /// Worst single-cycle toggled capacitance (fF) -- the peak-power proxy
  /// (cf. [Sankaralingam & Touba], reference [6] of the paper).
  double peak_toggled_cap_ff() const { return peak_cap_ff_; }

  /// Peak dynamic power per Hz in uW/Hz.
  double peak_dynamic_per_hz_uw() const;

  /// Worst single-cycle leakage current (nA).
  double peak_leakage_na() const { return peak_leakage_na_; }

  /// Dynamic power per Hz in uW/Hz (multiply by f for absolute power).
  double dynamic_per_hz_uw() const;

  /// Mean leakage current over observed cycles (nA).
  double mean_leakage_na() const;

  /// Static power in uW: VDD * mean leakage current.
  double static_uw() const;

  std::size_t cycles_observed() const { return leakage_samples_; }

  /// Per-gate load capacitance (fF) that weighs each toggle.
  std::span<const double> weights() const { return weights_; }

  void reset();

 private:
  const Netlist* nl_;
  const LeakageModel* leakage_;
  PowerConfig config_;
  std::vector<double> weights_;  ///< per-gate load capacitance (fF)
  std::vector<Logic> prev_;      ///< previous observe() state
  double toggle_total_ff_ = 0.0;
  std::size_t transitions_ = 0;  ///< observed cycles after the first
  double leakage_sum_na_ = 0.0;
  std::size_t leakage_samples_ = 0;
  double peak_cap_ff_ = 0.0;
  double peak_leakage_na_ = 0.0;
  double last_total_ = 0.0;  ///< toggle total at the previous cycle
};

}  // namespace scanpower
