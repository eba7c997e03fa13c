// Exactness of the packed scan-shift power evaluator: every
// ScanPowerResult field must equal (==, not within a tolerance) the
// scalar cycle-by-cycle oracle in support/scalar_scan_power.hpp, on all
// benchgen profiles, every scan option shape and the degenerate netlists.
// SCANPOWER_FORCE_BACKEND steers the packed sweeps, so running this suite
// once per forced backend covers every kernel table.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "benchgen/benchgen.hpp"
#include "netlist/builder.hpp"
#include "scan/scan_sim.hpp"
#include "support/scalar_scan_power.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

void expect_identical(const ScanPowerResult& got, const ScanPowerResult& want) {
  EXPECT_EQ(got.dynamic_per_hz_uw, want.dynamic_per_hz_uw);
  EXPECT_EQ(got.static_uw, want.static_uw);
  EXPECT_EQ(got.mean_toggled_cap_ff, want.mean_toggled_cap_ff);
  EXPECT_EQ(got.mean_leakage_na, want.mean_leakage_na);
  EXPECT_EQ(got.peak_dynamic_per_hz_uw, want.peak_dynamic_per_hz_uw);
  EXPECT_EQ(got.peak_leakage_na, want.peak_leakage_na);
  EXPECT_EQ(got.cycles, want.cycles);
}

std::vector<Logic> random_vector(std::size_t n, Rng& rng, bool allow_x) {
  constexpr Logic kValues[] = {Logic::Zero, Logic::One, Logic::X};
  std::vector<Logic> v(n);
  for (Logic& b : v) b = kValues[rng.next_below(allow_x ? 3 : 2)];
  return v;
}

TestSet random_tests(const Netlist& nl, std::size_t count, bool allow_x,
                     std::uint64_t seed) {
  Rng rng(seed);
  TestSet ts;
  for (std::size_t i = 0; i < count; ++i) {
    TestPattern p;
    p.pi = random_vector(nl.inputs().size(), rng, allow_x);
    p.ppi = random_vector(nl.dffs().size(), rng, allow_x);
    ts.patterns.push_back(std::move(p));
  }
  return ts;
}

/// The option shapes of the evaluator's contract.
enum class Shape {
  Traditional,     ///< no controls, fully specified patterns
  XEverywhere,     ///< X in pi/ppi and an X initial chain state
  MultiChain,      ///< three chains over a reversed chain order
  CaptureCycles,   ///< capture cycles observed
  ControlsWithX,   ///< pi and mux controls mixing 0, 1 and X
  Everything,      ///< all of the above at once
};

constexpr Shape kShapes[] = {Shape::Traditional,   Shape::XEverywhere,
                             Shape::MultiChain,    Shape::CaptureCycles,
                             Shape::ControlsWithX, Shape::Everything};

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::Traditional: return "Traditional";
    case Shape::XEverywhere: return "XEverywhere";
    case Shape::MultiChain: return "MultiChain";
    case Shape::CaptureCycles: return "CaptureCycles";
    case Shape::ControlsWithX: return "ControlsWithX";
    case Shape::Everything: return "Everything";
  }
  return "?";
}

/// Runs the packed evaluator and the oracle on one (netlist, shape) pair.
void check_shape(const Netlist& nl, Shape shape, std::size_t patterns,
                 std::uint64_t seed) {
  const LeakageModel leak;
  const CapacitanceModel caps;
  const bool all = shape == Shape::Everything;
  const bool with_x = all || shape == Shape::XEverywhere;
  const TestSet tests = random_tests(nl, patterns, with_x, seed);

  ScanSimOptions opts;
  if (with_x) opts.initial_state = Logic::X;
  ScanChainOrder reversed = ScanChainOrder::identity(nl.dffs().size());
  std::reverse(reversed.order.begin(), reversed.order.end());
  if (all || shape == Shape::MultiChain) {
    opts.num_chains = 3;
    opts.chain_order = &reversed;
  }
  if (all || shape == Shape::CaptureCycles) opts.include_capture_cycles = true;
  std::vector<Logic> pi_control;
  std::vector<Logic> mux_control;
  if (all || shape == Shape::ControlsWithX) {
    Rng rng(seed ^ 0xc0ffee);
    pi_control = random_vector(nl.inputs().size(), rng, true);
    mux_control = random_vector(nl.dffs().size(), rng, true);
  }

  ScanPowerEvaluator packed(nl, leak, caps);
  const ScanPowerResult got =
      packed.evaluate(tests, pi_control, mux_control, opts);
  const ScanPowerResult want = oracle::scalar_scan_power(
      nl, leak, caps, {}, tests, pi_control, mux_control, opts);
  expect_identical(got, want);
}

class ProfileExactTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, Shape>> {};

TEST_P(ProfileExactTest, PackedMatchesScalarOracle) {
  const SynthProfile& profile = iscas89_profiles()[std::get<0>(GetParam())];
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(profile.name));
  // About 700 shift cycles per session: several sweeps at every width,
  // and a total that is not a multiple of 64 lanes.
  const std::size_t patterns = 700 / nl.dffs().size() + 1;
  ASSERT_NE((patterns * nl.dffs().size()) % 64, 0u);
  check_shape(nl, std::get<1>(GetParam()), patterns,
              0x5ca9 + std::get<0>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, ProfileExactTest,
    ::testing::Combine(
        ::testing::Range<std::size_t>(0, iscas89_profiles().size()),
        ::testing::ValuesIn(kShapes)),
    [](const ::testing::TestParamInfo<ProfileExactTest::ParamType>& info) {
      return iscas89_profiles()[std::get<0>(info.param)].name + "_" +
             shape_name(std::get<1>(info.param));
    });

/// One primary input driving a single inverter: no scan cells at all.
Netlist single_gate_netlist() {
  NetlistBuilder b("one_gate");
  b.add_input("a");
  b.add_gate(GateType::Not, "y", {"a"});
  b.add_output("y");
  return b.link();
}

/// Purely combinational logic over several inputs, no scan cells.
Netlist no_dff_netlist() {
  NetlistBuilder b("comb");
  b.add_input("a");
  b.add_input("b");
  b.add_input("c");
  b.add_gate(GateType::Nand, "n1", {"a", "b"});
  b.add_gate(GateType::Nor, "n2", {"n1", "c"});
  b.add_output("n2");
  return b.link();
}

/// Pure shift structure: no combinational gates, so nothing leaks.
Netlist all_dff_netlist() {
  NetlistBuilder b("shift3");
  b.add_input("si");
  b.add_gate(GateType::Dff, "q1", {"si"});
  b.add_gate(GateType::Dff, "q2", {"q1"});
  b.add_gate(GateType::Dff, "q3", {"q2"});
  b.add_output("q3");
  return b.link();
}

class DegenerateExactTest : public ::testing::TestWithParam<Shape> {};

TEST_P(DegenerateExactTest, PackedMatchesScalarOracle) {
  for (const Netlist& nl :
       {single_gate_netlist(), no_dff_netlist(), all_dff_netlist(),
        map_to_nand_nor_inv(make_s27())}) {
    SCOPED_TRACE(nl.name());
    for (std::size_t patterns : {0, 1, 2, 67}) {
      SCOPED_TRACE(patterns);
      check_shape(nl, GetParam(), patterns, 77 + patterns);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DegenerateExactTest, ::testing::ValuesIn(kShapes),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return std::string(shape_name(info.param));
    });

TEST(ScanPowerExact, ChainLoadingMatchesExplicitShifting) {
  // simulate_chain_loading is a view over ShiftProtocol; this checks the
  // intermediate windows too, against an explicit register model.
  Rng rng(4242);
  for (std::size_t len : {1u, 4u, 9u, 16u}) {
    for (int k : {1, 2, 3, 5}) {
      ScanChainOrder order = ScanChainOrder::identity(len);
      rng.shuffle(order.order);
      const std::vector<Logic> ppi = random_vector(len, rng, true);
      const std::vector<Logic> prev = random_vector(len, rng, true);
      const ShiftProtocol shift(order, k);
      std::vector<Logic> stream;
      shift.build_stream(ppi, prev, stream);
      const std::size_t kk = static_cast<std::size_t>(k);
      std::vector<Logic> chain = prev;
      for (std::size_t s = 1; s <= shift.cycles(); ++s) {
        for (std::size_t c = 0; c < kk && c < len; ++c) {
          const std::size_t lc = (len - c + kk - 1) / kk;
          for (std::size_t j = lc; j-- > 1;) {
            chain[c + j * kk] = chain[c + (j - 1) * kk];
          }
          const std::size_t pad = shift.cycles() - lc;
          chain[c] = s - 1 >= pad
                         ? ppi[order.order[c + (lc - 1 - (s - 1 - pad)) * kk]]
                         : Logic::Zero;
        }
        for (std::size_t pos = 0; pos < len; ++pos) {
          ASSERT_EQ(stream[shift.offset(s) + pos], chain[pos])
              << "len=" << len << " k=" << k << " s=" << s << " pos=" << pos;
        }
      }
    }
  }
}

}  // namespace
}  // namespace scanpower
