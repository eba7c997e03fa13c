#include <gtest/gtest.h>

#include "util/assert.hpp"
#include "benchgen/benchgen.hpp"
#include "netlist/builder.hpp"
#include "sim/logic.hpp"
#include "sim/simulator.hpp"
#include "sim/toggles.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

// ---------- 3-valued logic ------------------------------------------------

TEST(Logic, CharRoundTrip) {
  EXPECT_EQ(logic_char(Logic::Zero), '0');
  EXPECT_EQ(logic_char(Logic::One), '1');
  EXPECT_EQ(logic_char(Logic::X), 'x');
  EXPECT_EQ(logic_from_char('0'), Logic::Zero);
  EXPECT_EQ(logic_from_char('1'), Logic::One);
  EXPECT_EQ(logic_from_char('x'), Logic::X);
  EXPECT_EQ(logic_from_char('-'), Logic::X);
  EXPECT_THROW(logic_from_char('z'), Error);
}

TEST(Logic, StringHelpers) {
  const auto v = logic_vector("01x");
  EXPECT_EQ(logic_string(v), "01x");
}

TEST(Logic, NotKleene) {
  EXPECT_EQ(logic_not(Logic::Zero), Logic::One);
  EXPECT_EQ(logic_not(Logic::One), Logic::Zero);
  EXPECT_EQ(logic_not(Logic::X), Logic::X);
}

struct GateEvalCase {
  GateType type;
  const char* ins;
  char out;
};

class GateEvalTest : public ::testing::TestWithParam<GateEvalCase> {};

TEST_P(GateEvalTest, Evaluates) {
  const GateEvalCase& c = GetParam();
  const auto ins = logic_vector(c.ins);
  EXPECT_EQ(eval_gate(c.type, ins), logic_from_char(c.out))
      << gate_type_name(c.type) << "(" << c.ins << ")";
}

INSTANTIATE_TEST_SUITE_P(
    TruthTables, GateEvalTest,
    ::testing::Values(
        // AND: controlling 0 dominates X.
        GateEvalCase{GateType::And, "11", '1'},
        GateEvalCase{GateType::And, "10", '0'},
        GateEvalCase{GateType::And, "0x", '0'},
        GateEvalCase{GateType::And, "1x", 'x'},
        GateEvalCase{GateType::And, "111", '1'},
        GateEvalCase{GateType::And, "x0x", '0'},
        GateEvalCase{GateType::Nand, "11", '0'},
        GateEvalCase{GateType::Nand, "0x", '1'},
        GateEvalCase{GateType::Nand, "x1", 'x'},
        GateEvalCase{GateType::Or, "00", '0'},
        GateEvalCase{GateType::Or, "1x", '1'},
        GateEvalCase{GateType::Or, "0x", 'x'},
        GateEvalCase{GateType::Nor, "00", '1'},
        GateEvalCase{GateType::Nor, "x1", '0'},
        GateEvalCase{GateType::Nor, "x0", 'x'},
        GateEvalCase{GateType::Xor, "10", '1'},
        GateEvalCase{GateType::Xor, "11", '0'},
        GateEvalCase{GateType::Xor, "1x", 'x'},
        GateEvalCase{GateType::Xor, "110", '0'},
        GateEvalCase{GateType::Xnor, "10", '0'},
        GateEvalCase{GateType::Xnor, "x0", 'x'},
        GateEvalCase{GateType::Not, "0", '1'},
        GateEvalCase{GateType::Not, "x", 'x'},
        GateEvalCase{GateType::Buf, "1", '1'},
        // MUX(select, a, b).
        GateEvalCase{GateType::Mux, "001", '0'},
        GateEvalCase{GateType::Mux, "101", '1'},
        GateEvalCase{GateType::Mux, "x11", '1'},  // both data agree
        GateEvalCase{GateType::Mux, "x01", 'x'},
        GateEvalCase{GateType::Const0, "", '0'},
        GateEvalCase{GateType::Const1, "", '1'}));

// ---------- simulator -----------------------------------------------------

Netlist xor_tree() {
  NetlistBuilder b("xt");
  b.add_input("a");
  b.add_input("b");
  b.add_input("c");
  b.add_gate(GateType::Xor, "x1", {"a", "b"});
  b.add_gate(GateType::Xor, "x2", {"x1", "c"});
  b.add_output("x2");
  return b.link();
}

TEST(Simulator, FullEvalMatchesTruth) {
  const Netlist nl = xor_tree();
  Simulator sim(nl);
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      for (int c = 0; c <= 1; ++c) {
        sim.set_input(nl.find("a"), from_bool(a));
        sim.set_input(nl.find("b"), from_bool(b));
        sim.set_input(nl.find("c"), from_bool(c));
        sim.eval();
        EXPECT_EQ(sim.value(nl.find("x2")), from_bool((a ^ b ^ c) != 0));
      }
    }
  }
}

TEST(Simulator, SourcesDefaultToX) {
  const Netlist nl = xor_tree();
  Simulator sim(nl);
  sim.eval();
  EXPECT_EQ(sim.value(nl.find("x2")), Logic::X);
}

TEST(Simulator, IncrementalMatchesFullRandomized) {
  const Netlist nl = make_s27();
  Simulator inc(nl);
  Simulator full(nl);
  Rng rng(123);
  for (int iter = 0; iter < 200; ++iter) {
    // Random partial update: flip a few sources, sometimes to X.
    for (GateId pi : nl.inputs()) {
      if (rng.next_below(3) == 0) {
        const Logic v = rng.next_below(4) == 0 ? Logic::X
                                               : from_bool(rng.next_bool());
        inc.set_input(pi, v);
        full.set_input(pi, v);
      }
    }
    for (GateId ff : nl.dffs()) {
      if (rng.next_below(3) == 0) {
        const Logic v = from_bool(rng.next_bool());
        inc.set_state(ff, v);
        full.set_state(ff, v);
      }
    }
    inc.eval_incremental();
    full.eval();
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      ASSERT_EQ(inc.value(id), full.value(id))
          << "gate " << nl.gate_name(id) << " iter " << iter;
    }
  }
}

TEST(Simulator, CaptureMovesDToQ) {
  const Netlist nl = make_s27();
  Simulator sim(nl);
  for (GateId pi : nl.inputs()) sim.set_input(pi, Logic::Zero);
  for (GateId ff : nl.dffs()) sim.set_state(ff, Logic::Zero);
  sim.eval();
  std::vector<Logic> expected;
  for (GateId ff : nl.dffs()) expected.push_back(sim.next_state(ff));
  sim.capture();
  sim.eval_incremental();
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    EXPECT_EQ(sim.value(nl.dffs()[i]), expected[i]);
  }
}

TEST(Simulator, SetInputsSpanApi) {
  const Netlist nl = make_s27();
  Simulator sim(nl);
  const auto pis = logic_vector("0101");
  const auto ffs = logic_vector("110");
  sim.set_inputs(pis);
  sim.set_states(ffs);
  sim.eval();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    EXPECT_EQ(sim.value(nl.inputs()[i]), pis[i]);
  }
  EXPECT_THROW(sim.set_inputs(logic_vector("01")), Error);
}

// ---------- toggle counting ------------------------------------------------

TEST(Toggles, WeightedCount) {
  const std::vector<Logic> before = logic_vector("0011x");
  const std::vector<Logic> after = logic_vector("0110x");
  const std::vector<double> w{1, 2, 4, 8, 16};
  // Positions 1 (0->1): 2, 2 (1->1): 0, wait: before=0,0,1,1,x after=0,1,1,0,x
  // toggles at pos1 (w=2) and pos3 (w=8).
  EXPECT_DOUBLE_EQ(weighted_toggles(before, after, w), 10.0);
}

TEST(Toggles, XTransitionsCountHalf) {
  const std::vector<Logic> before = logic_vector("x0");
  const std::vector<Logic> after = logic_vector("1x");
  const std::vector<double> w{2, 4};
  EXPECT_DOUBLE_EQ(weighted_toggles(before, after, w), 1.0 + 2.0);
}

TEST(Toggles, SizeMismatchThrows) {
  const std::vector<Logic> a = logic_vector("01");
  const std::vector<Logic> b = logic_vector("0");
  const std::vector<double> w{1, 1};
  EXPECT_THROW(weighted_toggles(a, b, w), Error);
}

}  // namespace
}  // namespace scanpower
