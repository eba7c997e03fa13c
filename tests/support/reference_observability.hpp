#pragma once
// Scalar reference for Monte-Carlo leakage observability: one 2-valued
// Simulator pass plus a circuit_leakage_na walk per sample, kept as a test
// oracle for the packed LeakageObservability engine.
//
// It replays the packed engine's sample stream exactly: block b covers
// samples 256b..256b+255 and draws, from Rng(block_seed(seed, b)),
// kObservabilityBlockWords words per primary input and then per DFF; lane
// l of a source is bit l % 64 of its word l / 64. Per block and gate, the
// leakage of the lanes where the gate is 1 folds in ascending lane order
// into acc[lane & 3] and then ((acc0 + acc1) + acc2) + acc3 -- the
// obs_reduce definition -- and block partials merge in block order. It
// shares no simulation or leakage code with the packed engine, so exact
// agreement between the two is evidence for both. Header-only because
// every tests/*.cpp builds into its own executable.

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "power/leakage_model.hpp"
#include "power/observability.hpp"
#include "sim/logic.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scanpower::oracle {

struct ReferenceObservability {
  std::vector<double> values;  ///< L_obs per gate, as LeakageObservability
  double mean_leakage_na = 0.0;
};

/// Same contract as LeakageObservability(nl, model, opts) with the
/// MonteCarlo method (opts.samples and opts.seed; the engine knobs do not
/// move the result).
inline ReferenceObservability reference_observability(
    const Netlist& nl, const LeakageModel& model,
    const ObservabilityOptions& opts) {
  SP_CHECK(opts.samples > 1, "oracle: need at least 2 samples");
  constexpr std::size_t kWords = kObservabilityBlockWords;
  constexpr std::size_t kLanes = kWords * 64;
  const std::size_t n = nl.num_gates();
  const std::size_t samples = static_cast<std::size_t>(opts.samples);

  std::vector<GateId> sources(nl.inputs().begin(), nl.inputs().end());
  sources.insert(sources.end(), nl.dffs().begin(), nl.dffs().end());
  const std::size_t num_pi = nl.inputs().size();

  Simulator sim(nl);
  std::vector<std::uint64_t> words(sources.size() * kWords);
  std::vector<std::array<double, 4>> acc(n);
  std::vector<double> sum1(n, 0.0);
  std::vector<double> sum0(n, 0.0);
  std::vector<std::uint32_t> cnt1(n, 0);
  double leak_total = 0.0;

  for (std::size_t base = 0, b = 0; base < samples; base += kLanes, ++b) {
    Rng rng(block_seed(opts.seed, b));
    for (std::uint64_t& w : words) w = rng.next_u64();
    const std::size_t batch = std::min(kLanes, samples - base);

    for (auto& a : acc) a = {0.0, 0.0, 0.0, 0.0};
    std::vector<std::uint32_t> block_cnt1(n, 0);
    double block_total = 0.0;
    for (std::size_t lane = 0; lane < batch; ++lane) {
      for (std::size_t j = 0; j < sources.size(); ++j) {
        const Logic v =
            from_bool((words[j * kWords + lane / 64] >> (lane % 64)) & 1);
        if (j < num_pi) {
          sim.set_input(sources[j], v);
        } else {
          sim.set_state(sources[j], v);
        }
      }
      sim.eval_incremental();
      const double leak = model.circuit_leakage_na(nl, sim.values());
      block_total += leak;
      for (GateId id = 0; id < n; ++id) {
        if (sim.value(id) != Logic::One) continue;
        acc[id][lane & 3] += leak;
        ++block_cnt1[id];
      }
    }

    leak_total += block_total;
    for (GateId id = 0; id < n; ++id) {
      const double s1 = ((acc[id][0] + acc[id][1]) + acc[id][2]) + acc[id][3];
      sum1[id] += s1;
      sum0[id] += block_total - s1;
      cnt1[id] += block_cnt1[id];
    }
  }

  ReferenceObservability res;
  res.mean_leakage_na = leak_total / static_cast<double>(samples);
  res.values.assign(n, 0.0);
  for (GateId id = 0; id < n; ++id) {
    const std::uint32_t c1 = cnt1[id];
    const std::uint32_t c0 = static_cast<std::uint32_t>(samples) - c1;
    if (c1 == 0 || c0 == 0) continue;  // never observed both ways: 0
    res.values[id] = sum1[id] / c1 - sum0[id] / c0;
  }
  return res;
}

}  // namespace scanpower::oracle
