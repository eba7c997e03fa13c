// Exactness of Podem::justify(), the Justify() behind
// FindControlledInputPattern: after every call of a seeded random call
// sequence, the return value, the implied values and the committed
// assignment must equal the full-imply oracle's
// (support/reference_justifier.hpp). Covers every benchgen profile and
// seeded random netlists over every gate type, random decision-point
// masks, random backtrack budgets and both backtrace directives. Then
// pins find_controlled_input_pattern() on every profile against the
// oracle-driven copy of the procedure, and checks the engine's state
// handling: generate() and justify() on one instance, partial masks in
// generate(), and mask validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "atpg/backtrace_directive.hpp"
#include "atpg/fault.hpp"
#include "atpg/podem.hpp"
#include "benchgen/benchgen.hpp"
#include "core/find_pattern.hpp"
#include "netlist/builder.hpp"
#include "power/leakage_model.hpp"
#include "power/observability.hpp"
#include "scan/add_mux.hpp"
#include "support/random_netlist.hpp"
#include "support/reference_justifier.hpp"
#include "techmap/techmap.hpp"
#include "timing/delay_model.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

/// Each source is a decision point with probability `percent`/100.
std::vector<bool> random_mask(const Netlist& nl, Rng& rng, int percent) {
  std::vector<bool> mask(nl.num_gates(), false);
  for (GateId pi : nl.inputs()) {
    mask[pi] = static_cast<int>(rng.next_below(100)) < percent;
  }
  for (GateId ff : nl.dffs()) {
    mask[ff] = static_cast<int>(rng.next_below(100)) < percent;
  }
  return mask;
}

/// Per-gate observabilities with many ties, so the directive's id
/// tie-break is exercised too.
std::vector<double> tied_observabilities(const Netlist& nl,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> obs(nl.num_gates());
  for (double& o : obs) o = 0.25 * static_cast<double>(rng.next_below(4));
  return obs;
}

struct SequenceStats {
  int mismatches = 0;
  int successes = 0;
  int failures = 0;
};

/// Runs `calls` random justify() calls on both engines and compares them
/// after every call. Targets are any line (sources and constants
/// included); budgets range from 0 to `max_limit`.
SequenceStats compare_sequence(const Netlist& nl,
                               const std::vector<bool>& mask,
                               const BacktraceDirective* directive,
                               std::uint64_t seed, int calls, int max_limit) {
  PodemOptions popts;
  popts.directive = directive;
  Podem engine(nl, popts, mask);
  oracle::ReferenceJustifier reference(nl, mask, directive);
  Rng rng(seed);
  SequenceStats stats;
  const int limits[] = {0, 1, 3, max_limit};
  for (int call = 0; call < calls; ++call) {
    const GateId line = static_cast<GateId>(rng.next_below(nl.num_gates()));
    const bool value = rng.next_below(2) != 0;
    const int limit = limits[rng.next_below(std::size(limits))];
    const bool got = engine.justify(line, value, limit);
    const bool want = reference.justify(line, value, limit);
    (got ? stats.successes : stats.failures) += 1;
    if (got != want || engine.values() != reference.values() ||
        engine.assignment() != reference.assignment()) {
      ADD_FAILURE() << nl.name() << " seed " << seed << " call " << call
                    << ": justify(" << nl.gate_name(line) << ", " << value
                    << ", " << limit << ") got " << got << ", want " << want
                    << (engine.values() != reference.values()
                            ? " (values differ)"
                            : "")
                    << (engine.assignment() != reference.assignment()
                            ? " (assignment differs)"
                            : "");
      if (++stats.mismatches >= 3) break;  // enough to diagnose
    }
  }
  return stats;
}

/// Random sequences under masks of every density and both directives.
SequenceStats sweep_netlist(const Netlist& nl, std::uint64_t seed, int calls,
                            int max_limit) {
  Rng rng(seed);
  const std::vector<double> obs = tied_observabilities(nl, seed ^ 0x0b5);
  const ObservabilityDirective obs_dir(obs);
  SequenceStats total;
  for (const int percent : {100, 70, 30}) {
    const std::vector<bool> mask = random_mask(nl, rng, percent);
    for (const BacktraceDirective* dir :
         {static_cast<const BacktraceDirective*>(nullptr),
          static_cast<const BacktraceDirective*>(&obs_dir)}) {
      const SequenceStats s =
          compare_sequence(nl, mask, dir, rng.next_u64(), calls, max_limit);
      total.mismatches += s.mismatches;
      total.successes += s.successes;
      total.failures += s.failures;
    }
  }
  return total;
}

std::vector<std::string> profile_names() {
  std::vector<std::string> names;
  for (const SynthProfile& p : iscas89_profiles()) names.push_back(p.name);
  return names;
}

class JustifyExactProfile : public ::testing::TestWithParam<std::string> {};

TEST_P(JustifyExactProfile, RandomCallSequencesMatchOracle) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(GetParam()));
  // The oracle re-simulates the whole circuit per decision: fewer calls
  // on the big profiles keep sanitizer builds quick.
  const int calls = static_cast<int>(
      std::clamp<std::size_t>(200000 / nl.num_gates(), 20, 150));
  const SequenceStats s = sweep_netlist(nl, 0x1u, calls, 40);
  EXPECT_EQ(s.mismatches, 0);
  EXPECT_GT(s.successes, 0);
  EXPECT_GT(s.failures, 0);
}

/// find_controlled_input_pattern() against the oracle-driven copy, with
/// the observability directive on and off and primary inputs controlled
/// or not.
TEST_P(JustifyExactProfile, FindPatternMatchesOracleDrivenProcedure) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(GetParam()));
  const DelayModel delay;
  const MuxPlan plan = plan_muxes(nl, delay);
  const LeakageObservability obs(nl, LeakageModel{});
  for (const bool directed : {true, false}) {
    for (const bool control_pis : {true, false}) {
      SCOPED_TRACE(std::string(directed ? "observability" : "depth") +
                   (control_pis ? ", PIs controlled" : ", PIs free"));
      FindPatternOptions opts;
      opts.observability = directed ? &obs.values() : nullptr;
      opts.control_primary_inputs = control_pis;
      const FindPatternResult got =
          find_controlled_input_pattern(nl, plan, delay.caps(), opts);
      const FindPatternResult want =
          oracle::reference_find_controlled_input_pattern(nl, plan,
                                                          delay.caps(), opts);
      EXPECT_EQ(got.pi_pattern, want.pi_pattern);
      EXPECT_EQ(got.mux_pattern, want.mux_pattern);
      EXPECT_EQ(got.implied_values, want.implied_values);
      EXPECT_EQ(got.transition_nodes, want.transition_nodes);
      EXPECT_EQ(got.gates_blocked, want.gates_blocked);
      EXPECT_EQ(got.gates_propagated, want.gates_propagated);
      EXPECT_EQ(got.transition_lines, want.transition_lines);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Benchgen, JustifyExactProfile,
                         ::testing::ValuesIn(profile_names()),
                         [](const auto& info) { return info.param; });

TEST(JustifyExact, RandomMixedGateNetlists) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Netlist nl =
        random_mixed_netlist(seed, 40 + 5 * static_cast<int>(seed));
    const SequenceStats s = sweep_netlist(nl, seed, 40, 30);
    EXPECT_EQ(s.mismatches, 0) << nl.name();
  }
}

/// The raw generator output, before mapping: wide AND/OR/NAND/NOR gates.
TEST(JustifyExact, RawPreTechmapNetlists) {
  for (const char* name : {"s344", "s1494"}) {
    const Netlist nl = make_iscas89_like(name);
    EXPECT_EQ(sweep_netlist(nl, 0x2u, 30, 40).mismatches, 0) << name;
  }
}

/// generate() discards justify() commitments, and justify() after
/// generate() starts again from the fault-free all-X state.
TEST(JustifyExact, GenerateAndJustifyShareOneEngine) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const std::vector<Fault> faults = collapse_faults(nl);
  Podem fresh(nl);
  Podem shared(nl);
  std::vector<bool> all(nl.num_gates(), false);
  for (GateId pi : nl.inputs()) all[pi] = true;
  for (GateId ff : nl.dffs()) all[ff] = true;
  Rng rng(7);
  int committed = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    const Fault& f = faults[(i * 37) % faults.size()];
    const PodemResult want = fresh.generate(f);
    const PodemResult got = shared.generate(f);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.pattern, want.pattern);
    EXPECT_EQ(got.backtracks, want.backtracks);
    EXPECT_EQ(got.decisions, want.decisions);
    // Justify on the engine that just ran a fault: the result must be a
    // fresh fault-free engine's.
    oracle::ReferenceJustifier ref(nl, all);
    const GateId line = static_cast<GateId>(rng.next_below(nl.num_gates()));
    const bool value = rng.next_below(2) != 0;
    const bool ok = shared.justify(line, value, 50);
    EXPECT_EQ(ok, ref.justify(line, value, 50));
    EXPECT_EQ(shared.values(), ref.values());
    EXPECT_EQ(shared.assignment(), ref.assignment());
    committed += ok;
  }
  EXPECT_GT(committed, 0);
}

/// With a partial mask generate() may assign decision points only: a
/// fault that needs a non-decision source is untestable relative to it.
TEST(JustifyExact, GenerateRespectsDecisionPoints) {
  NetlistBuilder b("mask");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::And, "g", {"a", "c"});
  b.add_output("g");
  const Netlist nl = b.link();
  const Fault g_sa0{nl.find("g"), -1, false};
  EXPECT_EQ(Podem(nl).generate(g_sa0).status, PodemStatus::Detected);
  std::vector<bool> only_a(nl.num_gates(), false);
  only_a[nl.find("a")] = true;
  Podem masked(nl, {}, only_a);
  const PodemResult r = masked.generate(g_sa0);
  EXPECT_EQ(r.status, PodemStatus::Untestable);
  // g stuck-at-1 is detected by a = 0 alone.
  const PodemResult r1 = masked.generate({nl.find("g"), -1, true});
  ASSERT_EQ(r1.status, PodemStatus::Detected);
  EXPECT_EQ(r1.pattern.pi[0], Logic::Zero);
  EXPECT_EQ(r1.pattern.pi[1], Logic::X);

  // Exciting a fault on a scan cell that is not a decision point needs
  // that cell's value: no decision can help, even though the cell's D
  // pin is driven by decision points.
  NetlistBuilder sb("mask_dff");
  sb.add_input("a");
  sb.add_input("c");
  sb.add_gate(GateType::And, "g", {"a", "c"});
  sb.add_gate(GateType::Dff, "q", {"g"});
  sb.add_gate(GateType::Or, "h", {"q", "a"});
  sb.add_output("h");
  const Netlist snl = sb.link();
  std::vector<bool> pis(snl.num_gates(), false);
  for (GateId pi : snl.inputs()) pis[pi] = true;
  const PodemResult rq =
      Podem(snl, {}, pis).generate({snl.find("q"), -1, false});
  EXPECT_EQ(rq.status, PodemStatus::Untestable);
  EXPECT_EQ(rq.decisions, 0);
}

TEST(JustifyExact, RejectsBadDecisionMasks) {
  const Netlist nl = make_s27();
  std::vector<bool> internal(nl.num_gates(), false);
  internal[nl.topo_order().front()] = true;  // a combinational gate
  EXPECT_THROW(Podem(nl, {}, internal), Error);
  EXPECT_THROW(Podem(nl, {}, std::vector<bool>(nl.num_gates() + 1, true)),
               Error);
}

}  // namespace
}  // namespace scanpower
