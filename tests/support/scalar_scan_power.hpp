#pragma once
// Scalar reference for ScanPowerEvaluator: the original cycle-by-cycle
// scan-shift simulation, kept as a test oracle for the packed evaluator.
//
// Every shift cycle shifts the chain registers explicitly, drives the
// combinational logic through an event-driven 3-valued Simulator, and
// feeds the settled value vector to PowerEstimator::observe() (a scalar
// weighted_toggles walk plus a circuit_leakage_na walk). It shares no
// code with the packed engine beyond the power models, so agreement
// between the two is evidence for both. Header-only because every
// tests/*.cpp builds into its own executable.

#include <span>
#include <vector>

#include "atpg/pattern.hpp"
#include "netlist/netlist.hpp"
#include "power/power_est.hpp"
#include "scan/reorder.hpp"
#include "scan/scan_sim.hpp"
#include "sim/logic.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"

namespace scanpower::oracle {

/// Same contract as ScanPowerEvaluator(nl, leakage, caps, config)
/// .evaluate(tests, pi_control, mux_control, opts).
inline ScanPowerResult scalar_scan_power(const Netlist& nl,
                                         const LeakageModel& leakage,
                                         const CapacitanceModel& caps,
                                         PowerConfig config,
                                         const TestSet& tests,
                                         std::span<const Logic> pi_control = {},
                                         std::span<const Logic> mux_control = {},
                                         const ScanSimOptions& opts = {}) {
  const std::size_t num_pi = nl.inputs().size();
  const std::size_t chain_len = nl.dffs().size();
  SP_CHECK(pi_control.empty() || pi_control.size() == num_pi,
           "oracle: pi_control size mismatch");
  SP_CHECK(mux_control.empty() || mux_control.size() == chain_len,
           "oracle: mux_control size mismatch");
  SP_CHECK(opts.num_chains >= 1, "oracle: num_chains must be >= 1");

  Simulator sim(nl);
  PowerEstimator power(nl, leakage, caps, config);

  const ScanChainOrder default_order = ScanChainOrder::identity(chain_len);
  const ScanChainOrder& order =
      opts.chain_order ? *opts.chain_order : default_order;
  SP_CHECK(order.order.size() == chain_len && order.is_permutation(),
           "oracle: invalid chain order");

  // Chain state indexed by chain position; scan-in enters at position 0.
  std::vector<Logic> chain(chain_len, opts.initial_state);
  // PI values held from the previously applied test (traditional scan).
  std::vector<Logic> held_pi(num_pi, Logic::Zero);

  auto cell_at = [&](std::size_t pos) { return nl.dffs()[order.order[pos]]; };
  auto mux_value = [&](std::size_t pos) -> Logic {
    return mux_control.empty() ? Logic::X : mux_control[order.order[pos]];
  };

  auto drive_shift_cycle = [&]() {
    for (std::size_t i = 0; i < num_pi; ++i) {
      const Logic ctrl = pi_control.empty() ? Logic::X : pi_control[i];
      sim.set_input(nl.inputs()[i], ctrl == Logic::X ? held_pi[i] : ctrl);
    }
    for (std::size_t pos = 0; pos < chain_len; ++pos) {
      const Logic mv = mux_value(pos);
      sim.set_state(cell_at(pos), mv == Logic::X ? chain[pos] : mv);
    }
    sim.eval_incremental();
    power.observe(sim.values());
  };

  // Position p belongs to chain p % k at in-chain index p / k; all chains
  // shift together for ceil(L/k) cycles, shorter chains padded with
  // leading zeros.
  const std::size_t k = static_cast<std::size_t>(opts.num_chains);
  const std::size_t lmax = chain_len == 0 ? 0 : (chain_len + k - 1) / k;
  auto chain_length = [&](std::size_t c) {
    return c < chain_len ? (chain_len - c + k - 1) / k : 0;
  };

  for (const TestPattern& test : tests.patterns) {
    SP_CHECK(test.pi.size() == num_pi && test.ppi.size() == chain_len,
             "oracle: pattern size mismatch");
    for (std::size_t t = 0; t < lmax; ++t) {
      for (std::size_t c = 0; c < k; ++c) {
        const std::size_t lc = chain_length(c);
        if (lc == 0) continue;
        for (std::size_t j = lc; j-- > 1;) {
          chain[c + j * k] = chain[c + (j - 1) * k];
        }
        const std::size_t pad = lmax - lc;
        Logic incoming = Logic::Zero;
        if (t >= pad) {
          incoming = test.ppi[order.order[c + (lc - 1 - (t - pad)) * k]];
        }
        chain[c] = incoming;
      }
      drive_shift_cycle();
    }
    // Capture: muxes transparent, PIs take the test values.
    for (std::size_t i = 0; i < num_pi; ++i) {
      sim.set_input(nl.inputs()[i], test.pi[i]);
      held_pi[i] = test.pi[i];
    }
    for (std::size_t pos = 0; pos < chain_len; ++pos) {
      sim.set_state(cell_at(pos), chain[pos]);
    }
    sim.eval_incremental();
    if (opts.include_capture_cycles) power.observe(sim.values());
    for (std::size_t pos = 0; pos < chain_len; ++pos) {
      chain[pos] = sim.next_state(cell_at(pos));
    }
  }

  ScanPowerResult res;
  res.dynamic_per_hz_uw = power.dynamic_per_hz_uw();
  res.static_uw = power.static_uw();
  res.mean_toggled_cap_ff = power.mean_toggled_cap_ff();
  res.mean_leakage_na = power.mean_leakage_na();
  res.peak_dynamic_per_hz_uw = power.peak_dynamic_per_hz_uw();
  res.peak_leakage_na = power.peak_leakage_na();
  res.cycles = power.cycles_observed();
  return res;
}

}  // namespace scanpower::oracle
