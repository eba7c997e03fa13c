// Exactness of the event-driven PODEM engine: for every fault checked,
// Podem must return the same status, pattern and backtrack and decision
// counts as the full-imply oracle in support/reference_podem.hpp. Covers
// every benchgen profile (s27 and s344 on all collapsed faults at the
// production backtrack limit; the larger ones on a fixed fault sample at
// a short limit), the raw pre-techmap netlists, seeded random netlists
// over every gate type (XOR/XNOR/MUX/BUF and constants included), a
// hand-built netlist with PI/DFF outputs and DFF pin faults,
// both backtrace directives, and generate_tests() across block widths and
// thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "atpg/backtrace_directive.hpp"
#include "atpg/fault.hpp"
#include "atpg/podem.hpp"
#include "atpg/tpg.hpp"
#include "benchgen/benchgen.hpp"
#include "netlist/builder.hpp"
#include "support/random_netlist.hpp"
#include "support/reference_podem.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

const char* status_name(PodemStatus s) {
  switch (s) {
    case PodemStatus::Detected: return "Detected";
    case PodemStatus::Untestable: return "Untestable";
    case PodemStatus::Aborted: return "Aborted";
  }
  return "?";
}

/// Runs both engines on every fault of `faults`; returns the number of
/// mismatching faults (each one also reported as a test failure).
int compare_engines(const Netlist& nl, const std::vector<Fault>& faults,
                    const PodemOptions& opts) {
  Podem podem(nl, opts);
  oracle::ReferencePodem reference(nl, opts);
  int mismatches = 0;
  for (const Fault& f : faults) {
    const PodemResult got = podem.generate(f);
    const PodemResult want = reference.generate(f);
    const bool same = got.status == want.status &&
                      got.pattern.pi == want.pattern.pi &&
                      got.pattern.ppi == want.pattern.ppi &&
                      got.backtracks == want.backtracks &&
                      got.decisions == want.decisions;
    if (!same) {
      ++mismatches;
      ADD_FAILURE() << nl.name() << " " << f.to_string(nl) << ": got "
                    << status_name(got.status) << " "
                    << got.pattern.to_string() << " bt " << got.backtracks
                    << " dec " << got.decisions << ", want "
                    << status_name(want.status) << " "
                    << want.pattern.to_string() << " bt " << want.backtracks
                    << " dec " << want.decisions;
    }
    if (mismatches >= 5) break;  // enough to diagnose
  }
  return mismatches;
}

/// Every fault when `max_faults` is 0, else an evenly strided sample.
std::vector<Fault> sample(const std::vector<Fault>& all,
                          std::size_t max_faults) {
  if (max_faults == 0 || all.size() <= max_faults) return all;
  std::vector<Fault> out;
  const std::size_t stride = all.size() / max_faults;
  for (std::size_t i = 0; i < all.size() && out.size() < max_faults;
       i += stride) {
    out.push_back(all[i]);
  }
  return out;
}

/// Every uncollapsed fault plus both pin faults of every DFF's D pin.
std::vector<Fault> every_fault_with_dff_pins(const Netlist& nl) {
  std::vector<Fault> faults = enumerate_faults(nl);
  for (GateId ff : nl.dffs()) {
    faults.push_back({ff, 0, false});
    faults.push_back({ff, 0, true});
  }
  return faults;
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

PodemOptions limit(int backtracks) {
  PodemOptions o;
  o.backtrack_limit = backtracks;
  return o;
}

/// All collapsed faults of the small circuits at the production limit.
TEST(PodemExact, AllCollapsedFaultsAtProductionLimit) {
  for (const char* name : {"s27", "s344"}) {
    const Netlist nl = map_to_nand_nor_inv(make_circuit(name));
    EXPECT_EQ(compare_engines(nl, collapse_faults(nl), limit(4000)), 0)
        << name;
  }
}

/// Every other benchgen profile, mapped as the flow uses it, on a fixed
/// fault sample at a short limit (aborts included).
class PodemExactProfile : public ::testing::TestWithParam<std::string> {};

TEST_P(PodemExactProfile, FaultSampleAtShortLimit) {
  const std::string& name = GetParam();
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(name));
  // The oracle re-simulates the whole circuit per decision: shrink the
  // sample on the big profiles so sanitizer builds stay quick.
  const std::size_t max_faults =
      std::clamp<std::size_t>(30000 / nl.num_gates(), 6, 40);
  EXPECT_EQ(
      compare_engines(nl, sample(collapse_faults(nl), max_faults), limit(30)),
      0);
}

std::vector<std::string> other_profiles() {
  std::vector<std::string> names;
  for (const SynthProfile& p : iscas89_profiles()) {
    if (p.name != "s344") names.push_back(p.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(Benchgen, PodemExactProfile,
                         ::testing::ValuesIn(other_profiles()),
                         [](const auto& info) { return info.param; });

/// The raw generator output, before mapping: wide AND/OR/NAND/NOR gates.
TEST(PodemExact, RawPreTechmapNetlists) {
  for (const char* name : {"s344", "s382", "s1494"}) {
    const Netlist nl = make_iscas89_like(name);
    EXPECT_EQ(compare_engines(nl, sample(collapse_faults(nl), 60), limit(60)),
              0)
        << name;
  }
}

TEST(PodemExact, RandomMixedGateNetlists) {
  int parity_gates = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const int gates = 40 + 5 * static_cast<int>(seed);
    const Netlist nl = random_mixed_netlist(seed, gates);
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      const GateType t = nl.type(id);
      parity_gates += t == GateType::Xor || t == GateType::Xnor ||
                      t == GateType::Mux || t == GateType::Buf;
    }
    const std::vector<Fault> faults = every_fault_with_dff_pins(nl);
    EXPECT_EQ(compare_engines(nl, faults, limit(300)), 0) << nl.name();
    EXPECT_EQ(compare_engines(nl, faults, limit(3)), 0) << nl.name();
  }
  EXPECT_GT(parity_gates, 0);
}

/// Constants feeding logic (one beside a deep pin), a PI that is also a
/// PO, a DFF that is also a PO, DFFs fed directly by a PI and by another
/// DFF, XOR/MUX/BUF side logic.
Netlist corner_netlist() {
  NetlistBuilder b("corners");
  b.add_input("a");
  b.add_input("b");
  b.add_input("c");
  b.add_input("s");
  b.add_gate(GateType::Const0, "zero", {});
  b.add_gate(GateType::Const1, "one", {});
  b.add_gate(GateType::Dff, "q1", {"a"});   // D driven by a PI
  b.add_gate(GateType::Dff, "q2", {"q1"});  // D driven by a DFF
  b.add_gate(GateType::Dff, "q3", {"m"});
  b.add_gate(GateType::And, "g1", {"a", "one"});
  b.add_gate(GateType::Or, "g2", {"b", "zero"});
  b.add_gate(GateType::And, "g3", {"c", "zero"});  // constant 0
  b.add_gate(GateType::Xor, "x1", {"g1", "q2"});
  b.add_gate(GateType::Xnor, "x2", {"g2", "q3"});
  b.add_gate(GateType::Mux, "m", {"s", "x1", "x2"});
  b.add_gate(GateType::Buf, "bf", {"m"});
  b.add_gate(GateType::Nor, "n1", {"bf", "g3"});
  b.add_gate(GateType::Nand, "n2", {"n1", "x1", "c"});
  b.add_gate(GateType::And, "n3", {"one", "n2"});  // constant beside a deep pin
  b.add_output("a");   // PI that is also a PO
  b.add_output("q2");  // DFF that is also a PO
  b.add_output("n3");
  b.add_output("g3");
  return b.link();
}

TEST(PodemExact, ConstantsSourceObservationsAndDffPins) {
  const Netlist nl = corner_netlist();
  const std::vector<Fault> faults = every_fault_with_dff_pins(nl);
  EXPECT_EQ(compare_engines(nl, faults, limit(4000)), 0);
  EXPECT_EQ(compare_engines(nl, faults, limit(1)), 0);
  // s27's DFF pin faults and PI stem faults on a real circuit.
  const Netlist s27 = make_s27();
  EXPECT_EQ(compare_engines(s27, every_fault_with_dff_pins(s27), limit(4000)),
            0);
}

TEST(PodemExact, ObservabilityDirective) {
  const Netlist corners = corner_netlist();
  const std::vector<double> corner_obs = tied_observabilities(corners, 11);
  const ObservabilityDirective corner_dir(corner_obs);
  PodemOptions opts = limit(4000);
  opts.directive = &corner_dir;
  EXPECT_EQ(compare_engines(corners, every_fault_with_dff_pins(corners), opts),
            0);

  for (const char* name : {"s27", "s344"}) {
    const Netlist nl = map_to_nand_nor_inv(make_circuit(name));
    const std::vector<double> obs = tied_observabilities(nl, 0x0b5);
    const ObservabilityDirective dir(obs);
    opts.directive = &dir;
    EXPECT_EQ(compare_engines(nl, sample(collapse_faults(nl), 300), opts), 0)
        << name;
  }
  const Netlist raw = make_iscas89_like("s382");
  const std::vector<double> raw_obs = tied_observabilities(raw, 0x382);
  const ObservabilityDirective raw_dir(raw_obs);
  opts = limit(200);
  opts.directive = &raw_dir;
  EXPECT_EQ(compare_engines(raw, sample(collapse_faults(raw), 80), opts), 0);
}

/// One engine instance serves many faults: state left by an aborted or
/// untestable search must not leak into the next fault.
TEST(PodemExact, EngineReuseAcrossFaultOrders) {
  const Netlist nl = map_to_nand_nor_inv(make_circuit("s344"));
  const std::vector<Fault> faults = sample(collapse_faults(nl), 300);
  const std::vector<Fault> reversed(faults.rbegin(), faults.rend());
  EXPECT_EQ(compare_engines(nl, reversed, limit(30)), 0);
}

void expect_same_tests(const TestSet& got, const TestSet& want,
                       const std::string& what) {
  EXPECT_EQ(got.total_faults, want.total_faults) << what;
  EXPECT_EQ(got.detected_faults, want.detected_faults) << what;
  EXPECT_EQ(got.untestable_faults, want.untestable_faults) << what;
  EXPECT_EQ(got.aborted_faults, want.aborted_faults) << what;
  EXPECT_EQ(got.seed, want.seed) << what;
  ASSERT_EQ(got.patterns.size(), want.patterns.size()) << what;
  for (std::size_t i = 0; i < got.patterns.size(); ++i) {
    EXPECT_EQ(got.patterns[i], want.patterns[i]) << what << " pattern " << i;
  }
}

TEST(PodemExact, GenerateTestsMatchesReferenceAcrossConfigs) {
  for (const char* name : {"s27", "s344"}) {
    const Netlist nl = map_to_nand_nor_inv(make_circuit(name));
    for (const int w : {1, 4}) {
      TpgOptions opts;
      opts.fault_sim.block_words = w;
      // Fault simulation is bit-identical across thread counts, so one
      // single-threaded reference per block width serves both.
      opts.fault_sim.num_threads = 1;
      const TestSet want = oracle::reference_generate_tests(nl, opts);
      for (const int t : {1, 4}) {
        opts.fault_sim.num_threads = t;
        expect_same_tests(generate_tests(nl, opts), want,
                          std::string(name) + " W=" + std::to_string(w) +
                              " T=" + std::to_string(t));
      }
    }
  }
}

}  // namespace
}  // namespace scanpower
