#include <gtest/gtest.h>

#include <cmath>

#include "benchgen/benchgen.hpp"
#include "netlist/builder.hpp"
#include "power/leakage_model.hpp"
#include "power/observability.hpp"
#include "power/power_est.hpp"
#include "sim/simulator.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

// ---------- leakage model (Figure 2 calibration) ---------------------------

TEST(Leakage, Nand2MatchesPaperFigure2Exactly) {
  const LeakageModel model;
  // Pattern bit0 = pin A (the strong stack position), bit1 = pin B.
  EXPECT_DOUBLE_EQ(model.cell_leakage_na(GateType::Nand, 2, 0b00), 78.0);
  EXPECT_DOUBLE_EQ(model.cell_leakage_na(GateType::Nand, 2, 0b10), 73.0);
  EXPECT_DOUBLE_EQ(model.cell_leakage_na(GateType::Nand, 2, 0b01), 264.0);
  EXPECT_DOUBLE_EQ(model.cell_leakage_na(GateType::Nand, 2, 0b11), 408.0);
}

TEST(Leakage, PinOrderAsymmetryEnablesReordering) {
  const LeakageModel model;
  // "01" vs "10" must differ (that is what pin reordering exploits).
  EXPECT_NE(model.cell_leakage_na(GateType::Nand, 2, 0b01),
            model.cell_leakage_na(GateType::Nand, 2, 0b10));
  EXPECT_NE(model.cell_leakage_na(GateType::Nor, 2, 0b01),
            model.cell_leakage_na(GateType::Nor, 2, 0b10));
}

TEST(Leakage, AllValuesPositive) {
  const LeakageModel model;
  for (GateType t : {GateType::Nand, GateType::Nor}) {
    for (int w = 2; w <= 4; ++w) {
      for (unsigned p = 0; p < (1u << w); ++p) {
        EXPECT_GT(model.cell_leakage_na(t, w, p), 0.0)
            << gate_type_name(t) << w << " p=" << p;
      }
    }
  }
  EXPECT_GT(model.cell_leakage_na(GateType::Not, 1, 0), 0.0);
  EXPECT_GT(model.cell_leakage_na(GateType::Not, 1, 1), 0.0);
}

TEST(Leakage, SourcesAndConstantsLeakNothing) {
  const LeakageModel model;
  EXPECT_DOUBLE_EQ(model.cell_leakage_na(GateType::Input, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(model.cell_leakage_na(GateType::Dff, 1, 0), 0.0);
  EXPECT_DOUBLE_EQ(model.cell_leakage_na(GateType::Const0, 0, 0), 0.0);
}

TEST(Leakage, NandAllOnesIsWorstCase) {
  // Output 0 turns off the whole parallel PMOS bank: the all-1 input is
  // the highest-leakage NAND state at every width.
  const LeakageModel model;
  for (int w = 2; w <= 4; ++w) {
    const unsigned all = (1u << w) - 1;
    const double worst = model.cell_leakage_na(GateType::Nand, w, all);
    for (unsigned p = 0; p < all; ++p) {
      EXPECT_LT(model.cell_leakage_na(GateType::Nand, w, p), worst);
    }
  }
}

TEST(Leakage, NorAllZerosIsWorstCase) {
  const LeakageModel model;
  for (int w = 2; w <= 4; ++w) {
    const double worst = model.cell_leakage_na(GateType::Nor, w, 0);
    for (unsigned p = 1; p < (1u << w); ++p) {
      EXPECT_LT(model.cell_leakage_na(GateType::Nor, w, p), worst);
    }
  }
}

TEST(Leakage, StackEffectMoreOffDevicesLeakLess) {
  const LeakageModel model;
  // Subthreshold stack effect: the all-off NMOS stack leaks less than a
  // single off device at the weak (bottom) position. (A single off device
  // at the *strong* position can beat all-off once on-PMOS gate leakage is
  // added -- exactly what the paper's own NAND2 table shows: 73 < 78.)
  const double all_off = model.cell_leakage_na(GateType::Nand, 3, 0b000);
  const double weak_off = model.cell_leakage_na(GateType::Nand, 3, 0b011);
  EXPECT_LT(all_off, weak_off + 1e-9);
  EXPECT_LT(model.cell_leakage_na(GateType::Nand, 2, 0b10),
            model.cell_leakage_na(GateType::Nand, 2, 0b00));
}

TEST(Leakage, ExpectedValueOverXMatchesAverage) {
  const LeakageModel model;
  // NAND2 with pin B = X, pin A = 1: expect mean of "10" and "11".
  const std::vector<Logic> ins = {Logic::One, Logic::X};
  const double expected = 0.5 * (model.cell_leakage_na(GateType::Nand, 2, 0b01) +
                                 model.cell_leakage_na(GateType::Nand, 2, 0b11));
  EXPECT_DOUBLE_EQ(model.cell_expected_leakage_na(GateType::Nand, ins), expected);
}

TEST(Leakage, ExpectedValueAllXEnumeratesEverything) {
  const LeakageModel model;
  const std::vector<Logic> ins = {Logic::X, Logic::X};
  double sum = 0;
  for (unsigned p = 0; p < 4; ++p) {
    sum += model.cell_leakage_na(GateType::Nand, 2, p);
  }
  EXPECT_DOUBLE_EQ(model.cell_expected_leakage_na(GateType::Nand, ins), sum / 4);
}

TEST(Leakage, MinLeakagePatternFindsTableMinimum) {
  const LeakageModel model;
  const auto [pat, leak] = model.min_leakage_pattern(GateType::Nand, 2);
  EXPECT_EQ(pat, 0b10u);  // "01" in paper order: A=0, B=1 -> 73 nA
  EXPECT_DOUBLE_EQ(leak, 73.0);
}

TEST(Leakage, CircuitLeakageSumsGates) {
  NetlistBuilder b("two");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Nand, "g", {"a", "c"});
  b.add_gate(GateType::Not, "n", {"g"});
  b.add_output("n");
  const Netlist nl = b.link();
  const LeakageModel model;
  Simulator sim(nl);
  sim.set_input(nl.find("a"), Logic::One);
  sim.set_input(nl.find("c"), Logic::One);
  sim.eval();
  // NAND2 at 11 -> 408; its output 0 feeds NOT at 0 -> inv_leakage(0).
  const double expected =
      408.0 + model.cell_leakage_na(GateType::Not, 1, 0);
  EXPECT_DOUBLE_EQ(model.circuit_leakage_na(nl, sim.values()), expected);
  EXPECT_DOUBLE_EQ(model.circuit_leakage_power_uw(nl, sim.values(), 0.9),
                   expected * 0.9 * 1e-3);
}

TEST(Leakage, CompositeGatesEstimated) {
  const LeakageModel model;
  // Composite estimates exist and are larger than a single NAND2.
  EXPECT_GT(model.cell_leakage_na(GateType::Xor, 2, 0b01), 200.0);
  EXPECT_GT(model.cell_leakage_na(GateType::And, 2, 0b11),
            model.cell_leakage_na(GateType::Nand, 2, 0b11));
  EXPECT_GT(model.cell_leakage_na(GateType::Mux, 3, 0b000), 0.0);
}

// ---------- power estimator -------------------------------------------------

TEST(PowerEstimator, StaticAveragesLeakageOverCycles) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel leakage;
  const CapacitanceModel caps;
  PowerEstimator est(nl, leakage, caps);
  Simulator sim(nl);
  double manual = 0;
  int cycles = 0;
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    for (GateId pi : nl.inputs()) sim.set_input(pi, from_bool(rng.next_bool()));
    for (GateId ff : nl.dffs()) sim.set_state(ff, from_bool(rng.next_bool()));
    sim.eval_incremental();
    est.observe(sim.values());
    manual += leakage.circuit_leakage_na(nl, sim.values());
    ++cycles;
  }
  EXPECT_NEAR(est.mean_leakage_na(), manual / cycles, 1e-9);
  EXPECT_NEAR(est.static_uw(), (manual / cycles) * 0.9 * 1e-3, 1e-12);
  EXPECT_EQ(est.cycles_observed(), 10u);
}

TEST(PowerEstimator, DynamicZeroWhenNothingToggles) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel leakage;
  const CapacitanceModel caps;
  PowerEstimator est(nl, leakage, caps);
  Simulator sim(nl);
  for (GateId pi : nl.inputs()) sim.set_input(pi, Logic::Zero);
  for (GateId ff : nl.dffs()) sim.set_state(ff, Logic::Zero);
  sim.eval();
  est.observe(sim.values());
  est.observe(sim.values());
  EXPECT_DOUBLE_EQ(est.dynamic_per_hz_uw(), 0.0);
}

TEST(PowerEstimator, DynamicScalesWithVddSquared) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel leakage;
  const CapacitanceModel caps;
  PowerConfig low{0.9};
  PowerConfig high{1.8};
  PowerEstimator e1(nl, leakage, caps, low);
  PowerEstimator e2(nl, leakage, caps, high);
  Simulator sim(nl);
  Rng rng(9);
  for (int i = 0; i < 5; ++i) {
    for (GateId pi : nl.inputs()) sim.set_input(pi, from_bool(rng.next_bool()));
    for (GateId ff : nl.dffs()) sim.set_state(ff, from_bool(rng.next_bool()));
    sim.eval_incremental();
    e1.observe(sim.values());
    e2.observe(sim.values());
  }
  EXPECT_NEAR(e2.dynamic_per_hz_uw(), 4.0 * e1.dynamic_per_hz_uw(), 1e-15);
}

TEST(PowerEstimator, FoldSkipsFirstCycleAndAveragesPerTransition) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel leakage;
  const CapacitanceModel caps;
  PowerEstimator est(nl, leakage, caps);
  est.fold_cycle(99.0, 10.0);  // first cycle: its toggle figure is ignored
  est.fold_cycle(2.0, 20.0);
  est.fold_cycle(1.0, 30.0);
  EXPECT_EQ(est.cycles_observed(), 3u);
  EXPECT_EQ(est.mean_toggled_cap_ff(), 1.5);
  EXPECT_EQ(est.peak_toggled_cap_ff(), 2.0);
  EXPECT_EQ(est.mean_leakage_na(), 20.0);
  EXPECT_EQ(est.peak_leakage_na(), 30.0);

  est.reset();
  EXPECT_EQ(est.cycles_observed(), 0u);
  EXPECT_EQ(est.mean_toggled_cap_ff(), 0.0);
  EXPECT_EQ(est.peak_toggled_cap_ff(), 0.0);
  EXPECT_EQ(est.mean_leakage_na(), 0.0);
  EXPECT_EQ(est.peak_leakage_na(), 0.0);
  est.fold_cycle(7.0, 5.0);  // first cycle again after reset()
  EXPECT_EQ(est.mean_toggled_cap_ff(), 0.0);
  EXPECT_EQ(est.mean_leakage_na(), 5.0);
}

TEST(PowerEstimator, ObserveMatchesFoldOfScalarFiguresAcrossReset) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel leakage;
  const CapacitanceModel caps;
  const std::vector<double> w = caps.load_vector(nl);
  PowerEstimator observed(nl, leakage, caps);
  PowerEstimator folded(nl, leakage, caps);
  EXPECT_EQ(std::vector<double>(observed.weights().begin(),
                                observed.weights().end()),
            w);
  Simulator sim(nl);
  Rng rng(13);
  std::vector<std::vector<Logic>> states;
  for (int i = 0; i < 6; ++i) {
    for (GateId pi : nl.inputs()) sim.set_input(pi, from_bool(rng.next_bool()));
    for (GateId ff : nl.dffs()) sim.set_state(ff, from_bool(rng.next_bool()));
    sim.eval_incremental();
    states.push_back(sim.values());
  }
  for (std::size_t i = 0; i < states.size(); ++i) {
    observed.observe(states[i]);
    folded.fold_cycle(i ? weighted_toggles(states[i - 1], states[i], w) : 0.0,
                      leakage.circuit_leakage_na(nl, states[i]));
  }
  EXPECT_EQ(observed.cycles_observed(), states.size());
  EXPECT_EQ(observed.mean_toggled_cap_ff(), folded.mean_toggled_cap_ff());
  EXPECT_EQ(observed.peak_toggled_cap_ff(), folded.peak_toggled_cap_ff());
  EXPECT_EQ(observed.mean_leakage_na(), folded.mean_leakage_na());
  EXPECT_GT(observed.mean_toggled_cap_ff(), 0.0);

  // reset() forgets the previous state: the next observation is a first
  // cycle and counts no toggles against the state seen before the reset.
  observed.reset();
  observed.observe(states[0]);
  EXPECT_EQ(observed.cycles_observed(), 1u);
  EXPECT_EQ(observed.mean_toggled_cap_ff(), 0.0);
  EXPECT_EQ(observed.peak_toggled_cap_ff(), 0.0);
  observed.observe(states[1]);
  EXPECT_EQ(observed.mean_toggled_cap_ff(),
            weighted_toggles(states[0], states[1], w));
}

// ---------- leakage observability -------------------------------------------

TEST(Observability, InverterSignConvention) {
  // y = NOT(a) with a NAND2 consumer to make leakage depend on a:
  // forcing a=1 puts the NAND input at 0... build a minimal circuit where
  // observability has a predictable sign: single inverter, L(in=1) uses
  // pmos-off state (204 nA) < L(in=0) (265 nA), so obs(a) < 0.
  NetlistBuilder b("inv");
  b.add_input("a");
  b.add_gate(GateType::Not, "y", {"a"});
  b.add_output("y");
  const Netlist nl = b.link();
  const LeakageModel model;
  ObservabilityOptions opts;
  opts.samples = 512;
  const LeakageObservability mc(nl, model, opts);
  EXPECT_LT(mc.obs(nl.find("a")), 0.0);
  // Exact value: L(1) - L(0) = 204 - 265 = -61.
  EXPECT_NEAR(mc.obs(nl.find("a")), -61.0, 1e-6);
}

TEST(Observability, ProbabilisticMatchesExactOnTreeSources) {
  // The probabilistic engine propagates a forced probability *forward*
  // (like the reverse-topological computation of [15], it does not
  // condition upstream of the forced line). For source lines there is no
  // upstream, so on a fanout-free tree it must agree exactly with
  // brute-force conditioning at the sources.
  NetlistBuilder b("tree");
  b.add_input("a");
  b.add_input("c");
  b.add_input("d");
  b.add_gate(GateType::Nand, "g1", {"a", "c"});
  b.add_gate(GateType::Nor, "g2", {"g1", "d"});
  b.add_output("g2");
  const Netlist nl = b.link();
  const LeakageModel model;
  ObservabilityOptions popts;
  popts.method = ObservabilityMethod::Probabilistic;
  const LeakageObservability prob(nl, model, popts);

  // Brute force: enumerate all inputs, average leakage conditioned on each
  // line's value.
  Simulator sim(nl);
  std::vector<double> sum1(nl.num_gates(), 0), sum0(nl.num_gates(), 0);
  std::vector<int> cnt1(nl.num_gates(), 0), cnt0(nl.num_gates(), 0);
  for (unsigned v = 0; v < 8; ++v) {
    sim.set_input(nl.find("a"), from_bool(v & 1));
    sim.set_input(nl.find("c"), from_bool(v & 2));
    sim.set_input(nl.find("d"), from_bool(v & 4));
    sim.eval_incremental();
    const double leak = model.circuit_leakage_na(nl, sim.values());
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      if (sim.value(id) == Logic::One) {
        sum1[id] += leak;
        cnt1[id]++;
      } else {
        sum0[id] += leak;
        cnt0[id]++;
      }
    }
  }
  for (const char* name : {"a", "c", "d"}) {
    const GateId id = nl.find(name);
    ASSERT_TRUE(cnt1[id] > 0 && cnt0[id] > 0);
    const double exact = sum1[id] / cnt1[id] - sum0[id] / cnt0[id];
    EXPECT_NEAR(prob.obs(id), exact, 1e-6) << name;
  }
}

TEST(Observability, MonteCarloApproximatesBruteForceOnS27) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel model;
  ObservabilityOptions mco;
  mco.samples = 4096;
  const LeakageObservability mc(nl, model, mco);
  // Brute force over all 2^7 source assignments.
  Simulator sim(nl);
  std::vector<double> sum1(nl.num_gates(), 0), sum0(nl.num_gates(), 0);
  std::vector<int> cnt1(nl.num_gates(), 0), cnt0(nl.num_gates(), 0);
  const std::size_t n_src = nl.inputs().size() + nl.dffs().size();
  for (unsigned v = 0; v < (1u << n_src); ++v) {
    unsigned bit = 0;
    for (GateId pi : nl.inputs()) sim.set_input(pi, from_bool((v >> bit++) & 1));
    for (GateId ff : nl.dffs()) sim.set_state(ff, from_bool((v >> bit++) & 1));
    sim.eval_incremental();
    const double leak = model.circuit_leakage_na(nl, sim.values());
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      if (sim.value(id) == Logic::One) {
        sum1[id] += leak;
        cnt1[id]++;
      } else {
        sum0[id] += leak;
        cnt0[id]++;
      }
    }
  }
  int compared = 0;
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    if (cnt1[id] == 0 || cnt0[id] == 0) continue;
    const double exact = sum1[id] / cnt1[id] - sum0[id] / cnt0[id];
    // Monte-Carlo with 4096 samples: expect agreement within a loose band.
    EXPECT_NEAR(mc.obs(id), exact, std::max(40.0, std::abs(exact) * 0.5))
        << nl.gate_name(id);
    ++compared;
  }
  EXPECT_GT(compared, 10);
}

TEST(Observability, SignalProbabilitiesBasic) {
  NetlistBuilder b("p");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::And, "g", {"a", "c"});
  b.add_gate(GateType::Not, "n", {"g"});
  b.add_output("n");
  const Netlist nl = b.link();
  const auto p = signal_probabilities(nl);
  EXPECT_DOUBLE_EQ(p[nl.find("a")], 0.5);
  EXPECT_DOUBLE_EQ(p[nl.find("g")], 0.25);
  EXPECT_DOUBLE_EQ(p[nl.find("n")], 0.75);
}

TEST(Observability, ExpectedGateLeakageWeightsPatterns) {
  const LeakageModel model;
  // NAND2 with p(a)=1, p(b)=0 -> exactly pattern "10" (pin0=1, pin1=0).
  EXPECT_NEAR(expected_gate_leakage_na(model, GateType::Nand, {1.0, 0.0}),
              model.cell_leakage_na(GateType::Nand, 2, 0b01), 1e-9);
  // Uniform probabilities -> table average.
  double avg = 0;
  for (unsigned p = 0; p < 4; ++p) {
    avg += model.cell_leakage_na(GateType::Nand, 2, p);
  }
  avg /= 4;
  EXPECT_NEAR(expected_gate_leakage_na(model, GateType::Nand, {0.5, 0.5}), avg,
              1e-9);
}

}  // namespace
}  // namespace scanpower
