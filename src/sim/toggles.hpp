#pragma once
// Weighted toggle counting between consecutive circuit states.
//
// Dynamic power per eq.(1) of the paper is f * 1/2 * VDD^2 * sum_i a_i*C_i;
// under a zero-delay model the switching activity contribution of one
// clock cycle is the set of gates whose output value changed.
// weighted_toggles() returns sum(C_i over toggled gates); PowerEstimator
// averages it over cycles and applies the voltage/frequency factors.

#include <span>

#include "netlist/netlist.hpp"
#include "sim/logic.hpp"

namespace scanpower {

/// Weighted toggle sum between two full value vectors.
/// Transitions to or from X count half a toggle (expectation over the
/// unknown value); X -> X counts zero.
double weighted_toggles(std::span<const Logic> before,
                        std::span<const Logic> after,
                        std::span<const double> weights);

}  // namespace scanpower
