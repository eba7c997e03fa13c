#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/assert.hpp"
#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/packed_sim.hpp"
#include "atpg/pattern.hpp"
#include "atpg/podem.hpp"
#include "atpg/tpg.hpp"
#include "benchgen/benchgen.hpp"
#include "netlist/builder.hpp"
#include "sim/simulator.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

// ---------- fault model -----------------------------------------------------

TEST(Faults, EnumerationCoversOutputsAndPins) {
  NetlistBuilder b("f");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Nand, "g", {"a", "c"});
  b.add_output("g");
  const Netlist nl = b.link();
  const auto faults = enumerate_faults(nl);
  // Stems: a, c, g (2 each) + pins: g.in0, g.in1 (2 each) = 10.
  EXPECT_EQ(faults.size(), 10u);
}

TEST(Faults, CollapsingDropsEquivalents) {
  NetlistBuilder b("f");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Nand, "g", {"a", "c"});
  b.add_output("g");
  const Netlist nl = b.link();
  const auto collapsed = collapse_faults(nl);
  // Fanout-free NAND: every pin fault collapses (sa0 onto output, sa1 onto
  // the driver stem): only the 6 stem faults remain.
  EXPECT_EQ(collapsed.size(), 6u);
}

TEST(Faults, BranchPinsKeptAfterFanout) {
  NetlistBuilder b("f");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Nand, "g1", {"a", "c"});
  b.add_gate(GateType::Nand, "g2", {"a", "g1"});
  b.add_output("g1");
  b.add_output("g2");
  const Netlist nl = b.link();
  const auto collapsed = collapse_faults(nl);
  // "a" branches (feeds g1 and g2): its non-controlling (sa1) branch
  // faults must be distinct.
  int a_pin_faults = 0;
  for (const Fault& f : collapsed) {
    if (f.pin >= 0 && nl.fanins(f.gate)[static_cast<std::size_t>(f.pin)] ==
                          nl.find("a")) {
      ++a_pin_faults;
      EXPECT_TRUE(f.stuck_at);  // sa0 collapsed onto output faults
    }
  }
  EXPECT_EQ(a_pin_faults, 2);
}

TEST(Faults, ToStringIsReadable) {
  const Netlist nl = make_s27();
  const Fault f1{nl.find("G10"), -1, true};
  EXPECT_EQ(f1.to_string(nl), "G10/sa1");
  const Fault f2{nl.find("G10"), 0, false};
  EXPECT_EQ(f2.to_string(nl), "G10.in0/sa0");
}

// ---------- packed simulation -----------------------------------------------

TEST(PackedSim, MatchesScalarSimulator) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  PackedSimulator packed(nl);
  Simulator scalar(nl);
  Rng rng(77);
  // 64 random patterns in one word.
  std::vector<TestPattern> pats;
  for (int i = 0; i < 64; ++i) pats.push_back(random_pattern(nl, rng));
  for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
    PatternWord w = 0;
    for (int j = 0; j < 64; ++j) {
      if (pats[j].pi[k] == Logic::One) w |= PatternWord{1} << j;
    }
    packed.set_source(nl.inputs()[k], w);
  }
  for (std::size_t k = 0; k < nl.dffs().size(); ++k) {
    PatternWord w = 0;
    for (int j = 0; j < 64; ++j) {
      if (pats[j].ppi[k] == Logic::One) w |= PatternWord{1} << j;
    }
    packed.set_source(nl.dffs()[k], w);
  }
  packed.eval();
  for (int j : {0, 1, 17, 63}) {
    scalar.set_inputs(pats[j].pi);
    scalar.set_states(pats[j].ppi);
    scalar.eval_incremental();
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      const bool packed_bit = (packed.value(id) >> j) & 1;
      ASSERT_EQ(from_bool(packed_bit), scalar.value(id))
          << nl.gate_name(id) << " lane " << j;
    }
  }
}

// ---------- fault simulation against brute force ------------------------------

/// Brute-force detection check: does `pattern` detect `fault`?
bool detects(const Netlist& nl, const TestPattern& pattern, const Fault& f) {
  Simulator good(nl);
  good.set_inputs(pattern.pi);
  good.set_states(pattern.ppi);
  good.eval();
  // Faulty copy: evaluate by hand with the fault forced.
  std::vector<Logic> fv(nl.num_gates(), Logic::X);
  for (GateId pi : nl.inputs()) fv[pi] = good.value(pi);
  for (GateId ff : nl.dffs()) fv[ff] = good.value(ff);
  if (f.pin < 0 && !is_combinational(nl.type(f.gate))) {
    fv[f.gate] = from_bool(f.stuck_at);
  }
  std::vector<Logic> ins;
  for (GateId id : nl.topo_order()) {
    ins.clear();
    const auto& fans = nl.fanins(id);
    for (std::size_t p = 0; p < fans.size(); ++p) {
      Logic v = fv[fans[p]];
      if (id == f.gate && static_cast<int>(p) == f.pin) {
        v = from_bool(f.stuck_at);
      }
      ins.push_back(v);
    }
    fv[id] = eval_gate(nl.type(id), ins);
    if (f.pin < 0 && id == f.gate) fv[id] = from_bool(f.stuck_at);
  }
  if (f.pin >= 0 && nl.type(f.gate) == GateType::Dff) {
    return good.value(nl.fanins(f.gate)[0]) != from_bool(f.stuck_at);
  }
  for (GateId po : nl.outputs()) {
    if (good.value(po) != fv[po]) return true;
  }
  for (GateId dff : nl.dffs()) {
    const GateId d = nl.fanins(dff)[0];
    if (good.value(d) != fv[d]) return true;
  }
  return false;
}

TEST(FaultSim, AgreesWithBruteForceOnS27) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  Rng rng(31);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 20; ++i) pats.push_back(random_pattern(nl, rng));

  FaultSimulator fsim(nl);
  const FaultSimResult res = fsim.run(pats, faults);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    bool brute = false;
    for (const TestPattern& p : pats) {
      if (detects(nl, p, faults[fi])) {
        brute = true;
        break;
      }
    }
    EXPECT_EQ(res.detected[fi], brute) << faults[fi].to_string(nl);
  }
}

TEST(FaultSim, FirstDetectingPatternIsCorrect) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  Rng rng(33);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 10; ++i) pats.push_back(random_pattern(nl, rng));
  FaultSimulator fsim(nl);
  const FaultSimResult res = fsim.run(pats, faults);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (!res.detected[fi]) continue;
    const std::size_t first = res.detecting_pattern[fi];
    EXPECT_TRUE(detects(nl, pats[first], faults[fi]));
    for (std::size_t p = 0; p < first; ++p) {
      EXPECT_FALSE(detects(nl, pats[p], faults[fi]))
          << faults[fi].to_string(nl) << " pattern " << p;
    }
  }
}

TEST(FaultSim, InitialDetectedSkipsFaults) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  Rng rng(35);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 8; ++i) pats.push_back(random_pattern(nl, rng));
  FaultSimulator fsim(nl);
  std::vector<bool> already(faults.size(), true);
  const FaultSimResult res = fsim.run(pats, faults, &already);
  EXPECT_EQ(res.num_detected, 0u);
}

TEST(FaultSim, RejectsXPatterns) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  TestPattern p;
  p.pi.assign(nl.inputs().size(), Logic::X);
  p.ppi.assign(nl.dffs().size(), Logic::Zero);
  FaultSimulator fsim(nl);
  EXPECT_THROW(fsim.run(std::span<const TestPattern>(&p, 1), faults), Error);
}

// ---------- PODEM ------------------------------------------------------------

TEST(Podem, GeneratedPatternsActuallyDetect) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  Podem podem(nl);
  Rng rng(41);
  int detected_count = 0;
  for (const Fault& f : faults) {
    const PodemResult r = podem.generate(f);
    ASSERT_NE(r.status, PodemStatus::Aborted) << f.to_string(nl);
    if (r.status != PodemStatus::Detected) continue;
    ++detected_count;
    TestPattern p = r.pattern;
    p.random_fill(rng);
    EXPECT_TRUE(detects(nl, p, f)) << f.to_string(nl);
  }
  EXPECT_GT(detected_count, 0);
}

TEST(Podem, UntestableClaimsVerifiedExhaustively) {
  // Redundant circuit: y = OR(a, NOT(a)) == 1, so y/sa1 is untestable.
  NetlistBuilder b("red");
  b.add_input("a");
  b.add_gate(GateType::Not, "n", {"a"});
  b.add_gate(GateType::Or, "y", {"a", "n"});
  b.add_output("y");
  const Netlist nl = b.link();
  Podem podem(nl);
  const PodemResult r1 = podem.generate({nl.find("y"), -1, true});
  EXPECT_EQ(r1.status, PodemStatus::Untestable);
  const PodemResult r0 = podem.generate({nl.find("y"), -1, false});
  EXPECT_EQ(r0.status, PodemStatus::Detected);
}

TEST(Podem, UntestableAgreesWithExhaustiveOnS27) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  Podem podem(nl);
  // Exhaustive: 2^7 source assignments.
  const std::size_t n_src = nl.inputs().size() + nl.dffs().size();
  ASSERT_LE(n_src, 16u);
  for (const Fault& f : faults) {
    const PodemResult r = podem.generate(f);
    bool exists = false;
    for (unsigned v = 0; v < (1u << n_src) && !exists; ++v) {
      TestPattern p;
      unsigned bit = 0;
      for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
        p.pi.push_back(from_bool((v >> bit++) & 1));
      }
      for (std::size_t k = 0; k < nl.dffs().size(); ++k) {
        p.ppi.push_back(from_bool((v >> bit++) & 1));
      }
      exists = detects(nl, p, f);
    }
    if (r.status == PodemStatus::Detected) {
      EXPECT_TRUE(exists) << f.to_string(nl);
    } else if (r.status == PodemStatus::Untestable) {
      EXPECT_FALSE(exists) << f.to_string(nl);
    }
  }
}

TEST(Podem, DffPinFaultHandled) {
  const Netlist nl = make_s27();
  // Find a DFF pin fault in the collapsed list, if any; otherwise build
  // one directly on G5 (its D driver G10 may or may not branch).
  const Fault f{nl.dffs()[0], 0, false};
  Podem podem(nl);
  const PodemResult r = podem.generate(f);
  EXPECT_NE(r.status, PodemStatus::Aborted);
  if (r.status == PodemStatus::Detected) {
    Rng rng(43);
    TestPattern p = r.pattern;
    p.random_fill(rng);
    EXPECT_TRUE(detects(nl, p, f));
  }
}

// ---------- pattern utilities -------------------------------------------------

TEST(Patterns, RoundTripString) {
  TestPattern p;
  p.pi = logic_vector("01x");
  p.ppi = logic_vector("1x0");
  const TestPattern q = TestPattern::from_string(p.to_string());
  EXPECT_EQ(q.pi, p.pi);
  EXPECT_EQ(q.ppi, p.ppi);
}

TEST(Patterns, RandomFillRemovesX) {
  TestPattern p;
  p.pi = logic_vector("x0x");
  p.ppi = logic_vector("xx");
  Rng rng(51);
  p.random_fill(rng);
  EXPECT_TRUE(p.fully_specified());
  EXPECT_EQ(p.pi[1], Logic::Zero);  // assigned bits untouched
}

// ---------- end-to-end TPG ------------------------------------------------------

TEST(Tpg, S27FullEfficiency) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const TestSet ts = generate_tests(nl);
  EXPECT_GT(ts.patterns.size(), 0u);
  EXPECT_EQ(ts.aborted_faults, 0u);
  // Every testable fault detected.
  EXPECT_EQ(ts.detected_faults + ts.untestable_faults, ts.total_faults);
  for (const TestPattern& p : ts.patterns) {
    EXPECT_TRUE(p.fully_specified());
  }
}

TEST(Tpg, DeterministicForFixedSeed) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const TestSet a = generate_tests(nl);
  const TestSet b = generate_tests(nl);
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_EQ(a.patterns[i].to_string(), b.patterns[i].to_string());
  }
}

TEST(Tpg, CompactionDoesNotLoseCoverage) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  TpgOptions with;
  with.compact = true;
  TpgOptions without;
  without.compact = false;
  const TestSet a = generate_tests(nl, with);
  const TestSet b = generate_tests(nl, without);
  EXPECT_EQ(a.detected_faults, b.detected_faults);
  EXPECT_LE(a.patterns.size(), b.patterns.size());
}

// The house rule: block width is a performance knob, never a result
// knob. Batches are a fixed kTpgBatchPatterns, so every width yields the
// same TestSet (a short PODEM budget keeps s713 quick).
TEST(Tpg, TestSetIndependentOfBlockWidth) {
  for (const char* name : {"s344", "s713"}) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(name));
    TpgOptions opts;
    opts.podem_backtrack_limit = 100;
    opts.fault_sim.block_words = kBlockWords.front();
    const TestSet want = generate_tests(nl, opts);
    EXPECT_GT(want.untestable_faults + want.aborted_faults, 0u) << name;
    for (const int w : kBlockWords) {
      opts.fault_sim.block_words = w;
      const TestSet got = generate_tests(nl, opts);
      const std::string at = std::string(name) + " W=" + std::to_string(w);
      EXPECT_EQ(got.detected_faults, want.detected_faults) << at;
      EXPECT_EQ(got.untestable_faults, want.untestable_faults) << at;
      EXPECT_EQ(got.aborted_faults, want.aborted_faults) << at;
      EXPECT_EQ(got.patterns, want.patterns) << at;
    }
  }
}

TEST(Tpg, CoverageMatchesIndependentFaultSim) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const TestSet ts = generate_tests(nl);
  const double cov = fault_coverage(nl, ts.patterns);
  EXPECT_NEAR(cov, ts.fault_coverage(), 1e-12);
}

}  // namespace
}  // namespace scanpower

namespace scanpower {
namespace {

TEST(Faults, XorKeepsPinFaults) {
  NetlistBuilder b("x");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Not, "n", {"a"});   // make 'a' branch
  b.add_gate(GateType::Xor, "y", {"a", "c"});
  b.add_output("y");
  b.add_output("n");
  const Netlist nl = b.link();
  const auto collapsed = collapse_faults(nl);
  int xor_pin_faults = 0;
  for (const Fault& f : collapsed) {
    if (f.gate == nl.find("y") && f.pin == 0) ++xor_pin_faults;
  }
  // 'a' branches (feeds n and y): XOR has no controlling value, so both
  // polarities of the branch fault survive collapsing.
  EXPECT_EQ(xor_pin_faults, 2);
}

TEST(Podem, BacktrackCountReported) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto faults = collapse_faults(nl);
  Podem podem(nl);
  int total_backtracks = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(50, faults.size()); ++i) {
    total_backtracks += podem.generate(faults[i]).backtracks;
  }
  EXPECT_GE(total_backtracks, 0);
}

TEST(Podem, AbortsUnderTinyBacktrackLimit) {
  // With limit 0, hard faults must abort rather than loop forever; easy
  // faults (justifiable without any conflict) may still be detected.
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const auto faults = collapse_faults(nl);
  PodemOptions opts;
  opts.backtrack_limit = 0;
  Podem podem(nl, opts);
  for (std::size_t i = 0; i < std::min<std::size_t>(100, faults.size()); ++i) {
    const PodemResult r = podem.generate(faults[i]);
    EXPECT_EQ(r.backtracks, 0);
    // Untestable with 0 backtracks is impossible to *prove* unless the
    // fault site is structurally dead; Detected and Aborted are the
    // expected outcomes.
    if (r.status == PodemStatus::Detected) {
      EXPECT_FALSE(r.pattern.pi.empty() && r.pattern.ppi.empty());
    }
  }
}

TEST(Tpg, WorksOnUnmappedCircuits) {
  // The ATPG does not require the NAND/NOR/INV mapping.
  const Netlist nl = make_s27();
  const TestSet ts = generate_tests(nl);
  EXPECT_GT(ts.fault_coverage(), 0.9);
  EXPECT_EQ(ts.aborted_faults, 0u);
}

}  // namespace
}  // namespace scanpower
