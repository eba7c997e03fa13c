#include <gtest/gtest.h>

#include "util/assert.hpp"
#include "atpg/podem.hpp"
#include "benchgen/benchgen.hpp"
#include "core/dont_care_fill.hpp"
#include "core/find_pattern.hpp"
#include "core/pin_reorder.hpp"
#include "core/verify.hpp"
#include "netlist/builder.hpp"
#include "power/observability.hpp"
#include "sim/simulator.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

std::vector<bool> all_sources_controllable(const Netlist& nl) {
  std::vector<bool> c(nl.num_gates(), false);
  for (GateId pi : nl.inputs()) c[pi] = true;
  for (GateId ff : nl.dffs()) c[ff] = true;
  return c;
}

std::vector<bool> pis_only(const Netlist& nl) {
  std::vector<bool> c(nl.num_gates(), false);
  for (GateId pi : nl.inputs()) c[pi] = true;
  return c;
}

// ---------- Podem::justify ---------------------------------------------------

constexpr int kJustifyLimit = 500;

TEST(Justify, SimpleObjective) {
  NetlistBuilder b("j");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Nand, "g", {"a", "c"});
  b.add_output("g");
  const Netlist nl = b.link();
  Podem j(nl, {}, all_sources_controllable(nl));
  EXPECT_TRUE(j.justify(nl.find("g"), false, kJustifyLimit));  // needs a=c=1
  EXPECT_EQ(j.value(nl.find("a")), Logic::One);
  EXPECT_EQ(j.value(nl.find("c")), Logic::One);
}

TEST(Justify, CommitsAreCumulative) {
  NetlistBuilder b("j");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::And, "g1", {"a", "c"});
  b.add_gate(GateType::Or, "g2", {"a", "c"});
  b.add_output("g1");
  b.add_output("g2");
  const Netlist nl = b.link();
  Podem j(nl, {}, all_sources_controllable(nl));
  // Forces a=1, c=1.
  ASSERT_TRUE(j.justify(nl.find("g1"), true, kJustifyLimit));
  // Now g2=0 requires a=0: must fail without disturbing commitments.
  EXPECT_FALSE(j.justify(nl.find("g2"), false, kJustifyLimit));
  EXPECT_EQ(j.value(nl.find("g1")), Logic::One);
  EXPECT_EQ(j.value(nl.find("a")), Logic::One);
}

TEST(Justify, FailureRestoresState) {
  NetlistBuilder b("j");
  b.add_input("a");
  b.add_gate(GateType::Not, "n", {"a"});
  b.add_gate(GateType::And, "g", {"a", "n"});  // g == 0 always
  b.add_output("g");
  const Netlist nl = b.link();
  Podem j(nl, {}, all_sources_controllable(nl));
  EXPECT_FALSE(j.justify(nl.find("g"), true, kJustifyLimit));
  // Nothing committed.
  EXPECT_EQ(j.assignment()[nl.find("a")], Logic::X);
  EXPECT_TRUE(j.justify(nl.find("g"), false, kJustifyLimit));
}

TEST(Justify, NonControlledSourcesStayX) {
  const Netlist nl = make_s27();
  Podem j(nl, {}, pis_only(nl));
  for (GateId ff : nl.dffs()) {
    EXPECT_EQ(j.value(ff), Logic::X);
    EXPECT_FALSE(j.can_control(ff));
  }
}

TEST(Justify, XorObjectivesSolvedViaBacktracking) {
  NetlistBuilder b("jx");
  b.add_input("a");
  b.add_input("c");
  b.add_input("d");
  b.add_gate(GateType::Xor, "x1", {"a", "c"});
  b.add_gate(GateType::Xor, "x2", {"x1", "d"});
  b.add_output("x2");
  const Netlist nl = b.link();
  for (bool target : {false, true}) {
    Podem j(nl, {}, all_sources_controllable(nl));
    ASSERT_TRUE(j.justify(nl.find("x2"), target, kJustifyLimit));
    EXPECT_EQ(j.value(nl.find("x2")), from_bool(target));
  }
}

TEST(Justify, DirectiveSteersChoice) {
  // g = NAND(a, c): justifying g=1 needs one 0. Observability makes the
  // preferred choice deterministic: cv=0 -> "target_value false" -> choose
  // max observability.
  NetlistBuilder b("jd");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Nand, "g", {"a", "c"});
  b.add_output("g");
  const Netlist nl = b.link();
  std::vector<double> obs(nl.num_gates(), 0.0);
  obs[nl.find("a")] = 10.0;   // prefers 0 strongly
  obs[nl.find("c")] = -10.0;  // prefers 1
  const ObservabilityDirective dir(obs);
  PodemOptions opts;
  opts.directive = &dir;
  Podem j(nl, opts, all_sources_controllable(nl));
  ASSERT_TRUE(j.justify(nl.find("g"), true, kJustifyLimit));
  EXPECT_EQ(j.value(nl.find("a")), Logic::Zero);  // max obs chosen for 0
  EXPECT_EQ(j.assignment()[nl.find("c")], Logic::X);
}

// ---------- FindControlledInputPattern ------------------------------------------

TEST(FindPattern, FullControlBlocksEverything) {
  // All cells multiplexed: no transition sources at all.
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  MuxPlan plan;
  plan.multiplexed.assign(nl.dffs().size(), true);
  const CapacitanceModel caps;
  const FindPatternResult r = find_controlled_input_pattern(nl, plan, caps);
  EXPECT_EQ(r.transition_lines, 0u);
  EXPECT_EQ(r.gates_propagated, 0u);
}

TEST(FindPattern, NoMuxesStillBlocksSomeGates) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  MuxPlan plan;
  plan.multiplexed.assign(nl.dffs().size(), false);
  const CapacitanceModel caps;
  const FindPatternResult r = find_controlled_input_pattern(nl, plan, caps);
  EXPECT_GT(r.gates_blocked, 0u);
  // Non-muxed pseudo-inputs are transition sources.
  for (GateId ff : nl.dffs()) {
    EXPECT_TRUE(r.transition_nodes[ff]);
  }
}

TEST(FindPattern, TransitionMarksConsistentWithBlocking) {
  // Invariant: a gate whose side input carries a settled controlling
  // value must not be marked transitioning.
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const DelayModel model;
  const MuxPlan plan = plan_muxes(nl, model);
  const CapacitanceModel caps;
  const FindPatternResult r = find_controlled_input_pattern(nl, plan, caps);
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    if (!r.transition_nodes[id]) continue;
    const GateType t = nl.type(id);
    if (!is_combinational(t)) continue;
    const auto cv = controlling_value(t);
    if (!cv) continue;
    for (GateId f : nl.fanins(id)) {
      if (r.transition_nodes[f]) continue;
      EXPECT_NE(r.implied_values[f], from_bool(*cv))
          << nl.gate_name(id) << " marked transitioning despite a settled "
          << "controlling side input " << nl.gate_name(f);
    }
  }
}

TEST(FindPattern, MuxedCellsNeverTransitionSources) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s444"));
  const DelayModel model;
  const MuxPlan plan = plan_muxes(nl, model);
  const CapacitanceModel caps;
  const FindPatternResult r = find_controlled_input_pattern(nl, plan, caps);
  for (std::size_t i = 0; i < plan.multiplexed.size(); ++i) {
    if (plan.multiplexed[i]) {
      EXPECT_FALSE(r.transition_nodes[nl.dffs()[i]]);
    }
  }
}

TEST(FindPattern, ObservabilityDirectiveKeepsResultsWellFormed) {
  // The directive changes *which* blocking vector is found (and therefore
  // which gates ever reach the TGS), but both runs must produce
  // well-formed, internally consistent results.
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const DelayModel model;
  const MuxPlan plan = plan_muxes(nl, model);
  const CapacitanceModel caps;
  const LeakageModel leak;
  const LeakageObservability obs(nl, leak);
  FindPatternOptions with;
  with.observability = &obs.values();
  for (const FindPatternResult& r :
       {find_controlled_input_pattern(nl, plan, caps, with),
        find_controlled_input_pattern(nl, plan, caps)}) {
    EXPECT_EQ(r.pi_pattern.size(), nl.inputs().size());
    EXPECT_EQ(r.mux_pattern.size(), nl.dffs().size());
    EXPECT_GT(r.gates_blocked, 0u);
    EXPECT_EQ(r.transition_lines,
              static_cast<std::size_t>(std::count(r.transition_nodes.begin(),
                                                  r.transition_nodes.end(),
                                                  true)));
  }
}

// ---------- don't-care filling ----------------------------------------------------

TEST(Fill, MinimizationNeverWorseThanFirstTry) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const LeakageModel leak;
  MuxPlan plan;
  plan.multiplexed.assign(nl.dffs().size(), false);
  const CapacitanceModel caps;
  FindPatternResult r = find_controlled_input_pattern(nl, plan, caps);
  const FillResult f = fill_dont_cares_min_leakage(
      nl, leak, r.pi_pattern, r.mux_pattern, plan.multiplexed);
  EXPECT_LE(f.best_leakage_na, f.first_leakage_na + 1e-9);
  for (Logic v : r.pi_pattern) EXPECT_NE(v, Logic::X);
}

TEST(Fill, EligibleMaskRespected) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel leak;
  std::vector<Logic> pi(nl.inputs().size(), Logic::X);
  std::vector<Logic> mux(nl.dffs().size(), Logic::X);
  std::vector<bool> eligible(nl.dffs().size(), false);
  eligible[0] = true;
  fill_dont_cares_min_leakage(nl, leak, pi, mux, eligible);
  EXPECT_NE(mux[0], Logic::X);
  for (std::size_t i = 1; i < mux.size(); ++i) {
    EXPECT_EQ(mux[i], Logic::X);  // non-eligible cells untouched
  }
}

TEST(Fill, NoFreeInputsIsNoop) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel leak;
  std::vector<Logic> pi(nl.inputs().size(), Logic::Zero);
  std::vector<Logic> mux(nl.dffs().size(), Logic::X);
  std::vector<bool> eligible(nl.dffs().size(), false);
  const FillResult f = fill_dont_cares_min_leakage(nl, leak, pi, mux, eligible);
  EXPECT_EQ(f.free_inputs, 0u);
  EXPECT_GT(f.best_leakage_na, 0.0);
}

TEST(Fill, DeterministicForFixedSeed) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const LeakageModel leak;
  std::vector<bool> eligible(nl.dffs().size(), true);
  std::vector<Logic> pi1(nl.inputs().size(), Logic::X);
  std::vector<Logic> mux1(nl.dffs().size(), Logic::X);
  auto pi2 = pi1;
  auto mux2 = mux1;
  fill_dont_cares_min_leakage(nl, leak, pi1, mux1, eligible);
  fill_dont_cares_min_leakage(nl, leak, pi2, mux2, eligible);
  EXPECT_EQ(pi1, pi2);
  EXPECT_EQ(mux1, mux2);
}

// ---------- pin reordering ---------------------------------------------------------

TEST(Reorder, Nand2PicksCheapPinAssignment) {
  // g = NAND(a, c) with a=1, c=0 -> pattern "10" (264 nA). Swapping pins
  // gives "01" (73 nA).
  NetlistBuilder b("r");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Nand, "g", {"a", "c"});
  b.add_output("g");
  Netlist nl = b.link();
  const LeakageModel leak;
  std::vector<Logic> vals(nl.num_gates(), Logic::X);
  vals[nl.find("a")] = Logic::One;
  vals[nl.find("c")] = Logic::Zero;
  vals[nl.find("g")] = Logic::One;
  const ReorderResult r = reorder_pins_for_leakage(nl, leak, vals);
  EXPECT_EQ(r.gates_permuted, 1u);
  EXPECT_DOUBLE_EQ(r.leakage_before_na, 264.0);
  EXPECT_DOUBLE_EQ(r.leakage_after_na, 73.0);
  // Pin 0 now reads the zero-valued input c.
  EXPECT_EQ(nl.fanins(nl.find("g"))[0], nl.find("c"));
}

TEST(Reorder, PreservesFunction) {
  Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const Netlist before = nl;
  const LeakageModel leak;
  // Arbitrary scan values: all X except PIs at 0.
  std::vector<Logic> vals(nl.num_gates(), Logic::X);
  Simulator sv(nl);
  for (GateId pi : nl.inputs()) sv.set_input(pi, Logic::Zero);
  sv.eval();
  reorder_pins_for_leakage(nl, leak, sv.values());

  Simulator sa(before);
  Simulator sb(nl);
  Rng rng(91);
  for (int v = 0; v < 128; ++v) {
    for (std::size_t k = 0; k < before.inputs().size(); ++k) {
      const Logic val = from_bool(rng.next_bool());
      sa.set_input(before.inputs()[k], val);
      sb.set_input(nl.inputs()[k], val);
    }
    for (std::size_t k = 0; k < before.dffs().size(); ++k) {
      const Logic val = from_bool(rng.next_bool());
      sa.set_state(before.dffs()[k], val);
      sb.set_state(nl.dffs()[k], val);
    }
    sa.eval_incremental();
    sb.eval_incremental();
    for (std::size_t k = 0; k < before.outputs().size(); ++k) {
      ASSERT_EQ(sa.value(before.outputs()[k]), sb.value(nl.outputs()[k]));
    }
  }
}

TEST(Reorder, NeverIncreasesExpectedLeakage) {
  Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s444"));
  const LeakageModel leak;
  Simulator sv(nl);
  Rng rng(93);
  for (GateId pi : nl.inputs()) sv.set_input(pi, from_bool(rng.next_bool()));
  // DFFs X: scan-mode expectation.
  sv.eval();
  const double before = leak.circuit_leakage_na(nl, sv.values());
  const ReorderResult r = reorder_pins_for_leakage(nl, leak, sv.values());
  // Values are unchanged by a symmetric-gate pin permutation.
  const double after = leak.circuit_leakage_na(nl, sv.values());
  EXPECT_LE(after, before + 1e-9);
  EXPECT_NEAR(before - after, r.saved_na(), 1e-6);
}

TEST(Reorder, IdempotentSecondPassDoesNothing) {
  Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const LeakageModel leak;
  Simulator sv(nl);
  for (GateId pi : nl.inputs()) sv.set_input(pi, Logic::One);
  sv.eval();
  reorder_pins_for_leakage(nl, leak, sv.values());
  const ReorderResult second = reorder_pins_for_leakage(nl, leak, sv.values());
  EXPECT_EQ(second.gates_permuted, 0u);
}

// ---------- structure verification -------------------------------------------------

TEST(Verify, S27StructurePassesAllChecks) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const DelayModel model;
  const MuxPlan plan = plan_muxes(nl, model);
  std::vector<Logic> mux_values(nl.dffs().size(), Logic::X);
  for (std::size_t i = 0; i < plan.multiplexed.size(); ++i) {
    if (plan.multiplexed[i]) mux_values[i] = Logic::Zero;
  }
  const StructureVerification v =
      verify_mux_structure(nl, plan, mux_values, model);
  EXPECT_TRUE(v.critical_delay_unchanged)
      << v.critical_delay_before_ps << " -> " << v.critical_delay_after_ps;
  EXPECT_TRUE(v.normal_mode_equivalent);
  EXPECT_TRUE(v.scan_mode_constants_ok);
  EXPECT_TRUE(v.all_ok());
}

}  // namespace
}  // namespace scanpower
