// Degenerate-netlist regressions for the packed engines.
//
// The cross-check suites all run on the benchgen ISCAS-like profiles --
// hundreds of gates, healthy logic depth. The packed engines' edge cases
// live at the other end: a single gate, a primary input wired straight
// to an output (no combinational logic in the cone at all), and a
// DFF-only shift structure (every observation point reads a source).
// Each shape goes through FaultSimulator, PackedLeakageEvaluator and
// ScanSession diagnosis (full-response and compacted) and is
// cross-checked against the scalar reference engines.

#include <gtest/gtest.h>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "benchgen/benchgen.hpp"
#include "compact/signature_log.hpp"
#include "diag/response.hpp"
#include "netlist/builder.hpp"
#include "power/leakage_model.hpp"
#include "power/packed_leakage.hpp"
#include "sim/simulator.hpp"
#include "support/diag_session.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

std::vector<TestPattern> random_patterns(const Netlist& nl, int n,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TestPattern> pats;
  pats.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pats.push_back(random_pattern(nl, rng));
  return pats;
}

/// One primary input driving a single inverter into the only output.
Netlist single_gate_netlist() {
  NetlistBuilder b("one_gate");
  b.add_input("a");
  b.add_gate(GateType::Not, "y", {"a"});
  b.add_output("y");
  return b.link();
}

/// A primary input marked directly as a primary output: the observation
/// point reads a source gate, with no combinational logic anywhere.
Netlist po_from_pi_netlist() {
  NetlistBuilder b("wire");
  b.add_input("a");
  b.add_input("b");
  b.add_gate(GateType::Not, "y", {"b"});  // keep one logic gate elsewhere
  b.add_output("a");
  b.add_output("y");
  return b.link();
}

/// Pure shift structure: PI -> DFF -> DFF -> PO, no combinational gates.
Netlist all_dff_netlist() {
  NetlistBuilder b("shift3");
  b.add_input("si");
  b.add_gate(GateType::Dff, "q1", {"si"});
  b.add_gate(GateType::Dff, "q2", {"q1"});
  b.add_gate(GateType::Dff, "q3", {"q2"});
  b.add_output("q3");
  return b.link();
}

/// Per-pattern scalar fault simulation: does injecting `f` change any
/// observable value (PO or DFF D capture) under `pat`?
bool scalar_detects(const Netlist& nl, const TestPattern& pat, const Fault& f) {
  ResponseCapture cap(nl, 1);
  const std::vector<TestPattern> one{pat};
  return !cap.inject(one, f).failures.empty();
}

class DegenerateNetlistTest : public ::testing::TestWithParam<int> {
 protected:
  Netlist make() const {
    switch (GetParam()) {
      case 0: return single_gate_netlist();
      case 1: return po_from_pi_netlist();
      default: return all_dff_netlist();
    }
  }
};

// Fault simulation: every (block width, thread count) configuration must
// agree with per-pattern scalar injection on every collapsed fault.
TEST_P(DegenerateNetlistTest, FaultSimulatorMatchesScalarInjection) {
  const Netlist nl = make();
  const auto faults = collapse_faults(nl);
  ASSERT_FALSE(faults.empty());
  const auto pats = random_patterns(nl, 70, 0xde9 + GetParam());

  std::vector<bool> expect(faults.size(), false);
  std::vector<std::size_t> expect_first(faults.size(),
                                        FaultSimResult::kNotDetected);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    for (std::size_t p = 0; p < pats.size(); ++p) {
      if (scalar_detects(nl, pats[p], faults[fi])) {
        expect[fi] = true;
        expect_first[fi] = p;
        break;
      }
    }
  }

  for (int words : {1, 4}) {
    for (int threads : {1, 4}) {
      FaultSimulator fsim(
          nl, FaultSimOptions{.block_words = words, .num_threads = threads});
      const FaultSimResult res = fsim.run(pats, faults);
      for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        EXPECT_EQ(res.detected[fi], expect[fi])
            << faults[fi].to_string(nl) << " W=" << words << " T=" << threads;
        EXPECT_EQ(res.detecting_pattern[fi], expect_first[fi])
            << faults[fi].to_string(nl);
      }
    }
  }
}

// Packed leakage: per-lane totals must equal the scalar walk even when
// the circuit has one leaking gate -- or none at all.
TEST_P(DegenerateNetlistTest, PackedLeakageMatchesScalar) {
  const Netlist nl = make();
  const LeakageModel model;
  const GateLeakageTables tables(nl, model);
  const PackedLeakageEvaluator leval(nl, tables);
  const auto pats = random_patterns(nl, 64, 0x1ea5);

  BlockSimulator sim(nl, 1);
  load_pattern_block(nl, pats, 0, sim);
  sim.eval();
  std::vector<double> leak(sim.lanes());
  leval.eval(sim, leak);

  Simulator ssim(nl);
  for (std::size_t p = 0; p < pats.size(); ++p) {
    for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
      ssim.set_input(nl.inputs()[k], pats[p].pi[k]);
    }
    for (std::size_t c = 0; c < nl.dffs().size(); ++c) {
      ssim.set_state(nl.dffs()[c], pats[p].ppi[c]);
    }
    ssim.eval();
    EXPECT_DOUBLE_EQ(leak[p], model.circuit_leakage_na(nl, ssim.values()))
        << "lane " << p;
  }
}

// Diagnosis (full-response and compacted): injecting any detected fault
// must rank it #1, for every engine configuration.
TEST_P(DegenerateNetlistTest, DiagnosisRanksInjectedFaultFirst) {
  const Netlist nl = make();
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(nl, 48, 0xd1a + GetParam());
  ResponseCapture cap(nl, 4);
  SignatureCapture scap(nl, MisrConfig{.width = 16, .window = 8}, 4);
  const auto ctx = std::make_shared<const DesignContext>(Netlist(nl));

  int diagnosed = 0;
  for (const Fault& f : faults) {
    const FailureLog log = cap.inject(pats, f);
    const SignatureLog slog = scap.inject(pats, f);
    EXPECT_EQ(log.failures.empty(), slog.num_failing_windows() == 0)
        << f.to_string(nl);
    if (log.failures.empty()) continue;
    ++diagnosed;
    for (int words : {1, 4}) {
      for (int threads : {1, 4}) {
        const DiagnosisOptions opts{.block_words = words,
                                    .num_threads = threads};
        const DiagnosisResult res = diagnose_once(ctx, pats, log, opts);
        EXPECT_EQ(res.rank_of(f), 1u)
            << f.to_string(nl) << " W=" << words << " T=" << threads;
        ASSERT_FALSE(res.ranked.empty());
        EXPECT_TRUE(res.ranked[0].exact());

        const DiagnosisResult sres = diagnose_once(ctx, pats, slog, opts);
        EXPECT_EQ(sres.rank_of(f), 1u)
            << "compacted " << f.to_string(nl) << " W=" << words;
        ASSERT_FALSE(sres.ranked.empty());
        EXPECT_TRUE(sres.ranked[0].exact());
      }
    }
  }
  EXPECT_GT(diagnosed, 0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DegenerateNetlistTest,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           switch (info.param) {
                             case 0: return "SingleGate";
                             case 1: return "PoDirectlyFromPi";
                             default: return "AllDff";
                           }
                         });

}  // namespace
}  // namespace scanpower
