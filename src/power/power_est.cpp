#include "power/power_est.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace scanpower {

PowerEstimator::PowerEstimator(const Netlist& nl, const LeakageModel& leakage,
                               const CapacitanceModel& caps, PowerConfig config)
    : nl_(&nl),
      leakage_(&leakage),
      config_(config),
      weights_(caps.load_vector(nl)) {}

void PowerEstimator::observe(std::span<const Logic> values) {
  SP_CHECK(values.size() == nl_->num_gates(),
           "PowerEstimator::observe: size mismatch");
  const double cap =
      leakage_samples_ ? weighted_toggles(prev_, values, weights_) : 0.0;
  prev_.assign(values.begin(), values.end());
  fold_cycle(cap, leakage_->circuit_leakage_na(*nl_, values));
}

void PowerEstimator::fold_cycle(double toggled_cap_ff, double leakage_na) {
  if (leakage_samples_) {
    toggle_total_ff_ += toggled_cap_ff;
    ++transitions_;
  }
  // The peak is the step of the running total, not the raw per-cycle
  // sum; the two can differ in the last bit.
  const double cycle_cap = toggle_total_ff_ - last_total_;
  last_total_ = toggle_total_ff_;
  peak_cap_ff_ = std::max(peak_cap_ff_, cycle_cap);
  peak_leakage_na_ = std::max(peak_leakage_na_, leakage_na);
  leakage_sum_na_ += leakage_na;
  ++leakage_samples_;
}

double PowerEstimator::peak_dynamic_per_hz_uw() const {
  return 0.5 * config_.vdd * config_.vdd * peak_cap_ff_ * 1e-15 * 1e6;
}

double PowerEstimator::dynamic_per_hz_uw() const {
  // E/cycle = 1/2 VDD^2 * C_toggled;  C in fF -> 1e-15 F;  W -> 1e6 uW.
  const double cap_f = mean_toggled_cap_ff() * 1e-15;
  return 0.5 * config_.vdd * config_.vdd * cap_f * 1e6;
}

double PowerEstimator::mean_leakage_na() const {
  return leakage_samples_
             ? leakage_sum_na_ / static_cast<double>(leakage_samples_)
             : 0.0;
}

double PowerEstimator::static_uw() const {
  return mean_leakage_na() * config_.vdd * 1e-3;
}

void PowerEstimator::reset() {
  prev_.clear();
  toggle_total_ff_ = 0.0;
  transitions_ = 0;
  leakage_sum_na_ = 0.0;
  leakage_samples_ = 0;
  peak_cap_ff_ = 0.0;
  peak_leakage_na_ = 0.0;
  last_total_ = 0.0;
}

}  // namespace scanpower
