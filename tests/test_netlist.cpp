#include <gtest/gtest.h>

#include <sstream>

#include "benchgen/benchgen.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/gate_types.hpp"
#include "netlist/netlist.hpp"
#include "netlist/stats.hpp"
#include "util/assert.hpp"

namespace scanpower {
namespace {

TEST(GateTypes, NamesRoundTrip) {
  for (int t = 0; t < kNumGateTypes; ++t) {
    const GateType type = static_cast<GateType>(t);
    const auto parsed = gate_type_from_name(gate_type_name(type));
    ASSERT_TRUE(parsed.has_value()) << gate_type_name(type);
    EXPECT_EQ(*parsed, type);
  }
}

TEST(GateTypes, AliasesAccepted) {
  EXPECT_EQ(gate_type_from_name("buff"), GateType::Buf);
  EXPECT_EQ(gate_type_from_name("inv"), GateType::Not);
  EXPECT_EQ(gate_type_from_name("nand"), GateType::Nand);
  EXPECT_FALSE(gate_type_from_name("bogus").has_value());
}

TEST(GateTypes, ControllingValues) {
  EXPECT_EQ(controlling_value(GateType::And), false);
  EXPECT_EQ(controlling_value(GateType::Nand), false);
  EXPECT_EQ(controlling_value(GateType::Or), true);
  EXPECT_EQ(controlling_value(GateType::Nor), true);
  EXPECT_FALSE(controlling_value(GateType::Xor).has_value());
  EXPECT_FALSE(controlling_value(GateType::Not).has_value());
}

TEST(GateTypes, ControlledOutputs) {
  EXPECT_EQ(controlled_output(GateType::And), false);
  EXPECT_EQ(controlled_output(GateType::Nand), true);
  EXPECT_EQ(controlled_output(GateType::Or), true);
  EXPECT_EQ(controlled_output(GateType::Nor), false);
}

TEST(GateTypes, SymmetryAndInversion) {
  EXPECT_TRUE(is_symmetric(GateType::Nand));
  EXPECT_TRUE(is_symmetric(GateType::Xor));
  EXPECT_FALSE(is_symmetric(GateType::Mux));
  EXPECT_FALSE(is_symmetric(GateType::Not));
  EXPECT_TRUE(is_inverting(GateType::Nor));
  EXPECT_FALSE(is_inverting(GateType::Or));
}

Netlist tiny_netlist() {
  // a, b -> g1 = NAND(a,b); g2 = NOT(g1); PO g2; one DFF fed by g1.
  NetlistBuilder b("tiny");
  b.add_input("a");
  b.add_input("b");
  b.add_gate(GateType::Nand, "g1", {"a", "b"});
  b.add_gate(GateType::Not, "g2", {"g1"});
  b.add_gate(GateType::Dff, "q", {"g1"});
  b.add_output("g2");
  return b.link();
}

TEST(Netlist, BasicStructure) {
  const Netlist nl = tiny_netlist();
  EXPECT_EQ(nl.num_gates(), 5u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.dffs().size(), 1u);
  const GateId g1 = nl.find("g1");
  ASSERT_NE(g1, kInvalidGate);
  EXPECT_EQ(nl.type(g1), GateType::Nand);
  EXPECT_EQ(nl.fanins(g1).size(), 2u);
  EXPECT_EQ(nl.fanouts(g1).size(), 2u);  // g2 and q
}

TEST(Netlist, LevelsAndTopo) {
  const Netlist nl = tiny_netlist();
  EXPECT_EQ(nl.level(nl.find("a")), 0u);
  EXPECT_EQ(nl.level(nl.find("g1")), 1u);
  EXPECT_EQ(nl.level(nl.find("g2")), 2u);
  EXPECT_EQ(nl.depth(), 2u);
  // topo: fanins precede fanouts.
  const auto& topo = nl.topo_order();
  std::vector<std::size_t> pos(nl.num_gates(), 0);
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (GateId id : topo) {
    for (GateId f : nl.fanins(id)) {
      if (is_combinational(nl.type(f))) {
        EXPECT_LT(pos[f], pos[id]);
      }
    }
  }
}

// A gate fed by a constant and by a deeper gate must still sit above
// that gate: the constant may not release it early.
TEST(Netlist, ConstantFaninDoesNotReleaseGateEarly) {
  NetlistBuilder b("cst");
  b.add_input("x");
  b.add_gate(GateType::Const0, "zero", {});
  b.add_gate(GateType::Not, "n1", {"x"});
  b.add_gate(GateType::Not, "n2", {"n1"});
  b.add_gate(GateType::Not, "n3", {"n2"});
  b.add_gate(GateType::And, "g", {"zero", "n1", "n3"});
  b.add_output("g");
  const Netlist nl = b.link();
  EXPECT_EQ(nl.level(nl.find("zero")), 0u);
  EXPECT_EQ(nl.level(nl.find("g")), 4u);
  EXPECT_EQ(nl.depth(), 4u);
  const auto& topo = nl.topo_order();
  std::vector<std::size_t> pos(nl.num_gates(), 0);
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (GateId id : topo) {
    for (GateId f : nl.fanins(id)) {
      if (is_combinational(nl.type(f))) {
        EXPECT_LT(pos[f], pos[id]) << nl.gate_name(f) << " -> "
                                   << nl.gate_name(id);
        EXPECT_LT(nl.level(f), nl.level(id));
      }
    }
  }
}

TEST(Netlist, ForwardReferencesResolve) {
  NetlistBuilder b("fwd");
  b.add_input("x");
  b.add_gate(GateType::Not, "n1", {"n2"});  // n2 defined later
  b.add_gate(GateType::Not, "n2", {"x"});
  b.add_output("n1");
  const Netlist nl = b.link();
  EXPECT_EQ(nl.level(nl.find("n1")), 2u);
}

TEST(Netlist, DuplicateNameRejected) {
  NetlistBuilder b("dup");
  b.add_input("x");
  b.add_gate(GateType::Not, "x", {"x"});
  EXPECT_THROW(b.link(), Error);
}

TEST(Netlist, UndefinedNetRejected) {
  NetlistBuilder b("undef");
  b.add_input("x");
  b.add_gate(GateType::Not, "y", {"nope"});
  EXPECT_THROW(b.link(), Error);
}

TEST(Netlist, CombinationalCycleRejected) {
  NetlistBuilder b("cyc");
  b.add_input("x");
  b.add_gate(GateType::Nand, "g1", {"x", "g2"});
  b.add_gate(GateType::Nand, "g2", {"x", "g1"});
  b.add_output("g2");
  EXPECT_THROW(b.link(), Error);
}

TEST(Netlist, SequentialLoopAllowed) {
  // FF in the loop breaks the combinational cycle: legal.
  NetlistBuilder b("seq");
  b.add_input("x");
  b.add_gate(GateType::Dff, "q", {"g"});
  b.add_gate(GateType::Nand, "g", {"x", "q"});
  b.add_output("g");
  EXPECT_NO_THROW(b.link());
}

TEST(Netlist, ArityChecked) {
  NetlistBuilder b("arity");
  b.add_input("x");
  b.add_gate(GateType::Nand, "g", {"x"});  // NAND needs >= 2
  EXPECT_THROW(b.link(), Error);
}

TEST(Netlist, PermuteFaninsSwaps) {
  Netlist nl = tiny_netlist();
  const GateId g1 = nl.find("g1");
  const auto before = nl.fanins(g1);
  nl.permute_fanins(g1, {1, 0});
  EXPECT_EQ(nl.fanins(g1)[0], before[1]);
  EXPECT_EQ(nl.fanins(g1)[1], before[0]);
}

TEST(Netlist, PermuteRejectsNonPermutation) {
  Netlist nl = tiny_netlist();
  EXPECT_THROW(nl.permute_fanins(nl.find("g1"), {0, 0}), Error);
  EXPECT_THROW(nl.permute_fanins(nl.find("g1"), {0}), Error);
}

TEST(BenchIo, ParsesS27) {
  const Netlist nl = make_s27();
  const NetlistStats st = compute_stats(nl);
  EXPECT_EQ(st.num_inputs, 4u);
  EXPECT_EQ(st.num_outputs, 1u);
  EXPECT_EQ(st.num_dffs, 3u);
  EXPECT_EQ(st.num_comb_gates, 10u);
}

TEST(BenchIo, RoundTrip) {
  const Netlist nl = make_s27();
  const std::string text = write_bench_string(nl);
  const Netlist nl2 = parse_bench_string(text, "s27rt");
  EXPECT_EQ(nl2.num_gates(), nl.num_gates());
  EXPECT_EQ(nl2.inputs().size(), nl.inputs().size());
  EXPECT_EQ(nl2.dffs().size(), nl.dffs().size());
  EXPECT_EQ(nl2.outputs().size(), nl.outputs().size());
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const GateId id2 = nl2.find(nl.gate_name(id));
    ASSERT_NE(id2, kInvalidGate) << nl.gate_name(id);
    EXPECT_EQ(nl2.type(id2), nl.type(id));
    EXPECT_EQ(nl2.fanins(id2).size(), nl.fanins(id).size());
  }
}

TEST(BenchIo, CommentsAndBlanksIgnored) {
  const Netlist nl = parse_bench_string(
      "# header\n\nINPUT(a)\n  # inline\nOUTPUT(b)\nb = NOT(a) # trailing\n",
      "c");
  EXPECT_EQ(nl.num_gates(), 2u);
}

TEST(BenchIo, SingleInputAndBecomesBuf) {
  const Netlist nl =
      parse_bench_string("INPUT(a)\nOUTPUT(b)\nb = AND(a)\n", "c");
  EXPECT_EQ(nl.type(nl.find("b")), GateType::Buf);
}

TEST(BenchIo, SingleInputNorBecomesNot) {
  const Netlist nl =
      parse_bench_string("INPUT(a)\nOUTPUT(b)\nb = NOR(a)\n", "c");
  EXPECT_EQ(nl.type(nl.find("b")), GateType::Not);
}

TEST(BenchIo, MalformedLinesThrow) {
  EXPECT_THROW(parse_bench_string("INPUT a\n", "c"), ParseError);
  EXPECT_THROW(parse_bench_string("b = FROB(a)\n", "c"), ParseError);
  EXPECT_THROW(parse_bench_string("INPUT(a)\nb = NOT(zz)\n", "c"), ParseError);
  EXPECT_THROW(parse_bench_string(" = NOT(a)\n", "c"), ParseError);
  EXPECT_THROW(parse_bench_string("INPUT(a, b)\n", "c"), ParseError);
}

TEST(BenchIo, InputAsGateRejected) {
  EXPECT_THROW(parse_bench_string("x = INPUT(y)\n", "c"), ParseError);
}

TEST(Stats, ToStringMentionsCounts) {
  const Netlist nl = make_s27();
  const std::string s = compute_stats(nl).to_string();
  EXPECT_NE(s.find("PI=4"), std::string::npos);
  EXPECT_NE(s.find("FF=3"), std::string::npos);
}

}  // namespace
}  // namespace scanpower

namespace scanpower {
namespace {

TEST(Netlist, ReplaceUsesRewiresAllReaders) {
  NetlistBuilder b("ru");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Not, "n1", {"a"});
  b.add_gate(GateType::Nand, "g1", {"n1", "c"});
  b.add_gate(GateType::Nor, "g2", {"n1", "g1"});
  b.add_output("g2");
  Netlist nl = b.link();
  nl.replace_uses(nl.find("n1"), nl.find("c"));
  nl.finalize();
  EXPECT_EQ(nl.fanins(nl.find("g1"))[0], nl.find("c"));
  EXPECT_EQ(nl.fanins(nl.find("g2"))[0], nl.find("c"));
  EXPECT_TRUE(nl.fanouts(nl.find("n1")).empty());
}

TEST(BenchIo, EmptyFileParsesToEmptyNetlist) {
  const Netlist nl = parse_bench_string("", "empty");
  EXPECT_EQ(nl.num_gates(), 0u);
  EXPECT_TRUE(nl.finalized());
}

TEST(BenchIo, OutputBeforeDefinitionOk) {
  const Netlist nl =
      parse_bench_string("OUTPUT(y)\nINPUT(a)\ny = NOT(a)\n", "c");
  EXPECT_EQ(nl.outputs().size(), 1u);
}

TEST(BenchIo, DffChainsParse) {
  const Netlist nl = parse_bench_string(
      "INPUT(a)\nOUTPUT(q2)\nq1 = DFF(a)\nq2 = DFF(q1)\n", "ffchain");
  EXPECT_EQ(nl.dffs().size(), 2u);
  // q1 -> q2 is a sequential edge; both are level-0 sources.
  EXPECT_EQ(nl.level(nl.find("q1")), 0u);
  EXPECT_EQ(nl.level(nl.find("q2")), 0u);
}

TEST(Netlist, MarkOutputIdempotent) {
  NetlistBuilder b("po");
  b.add_input("a");
  b.add_gate(GateType::Not, "y", {"a"});
  b.add_output("y");
  Netlist nl = b.link();
  nl.mark_output(nl.find("y"));  // second time
  EXPECT_EQ(nl.outputs().size(), 1u);
}

}  // namespace
}  // namespace scanpower
