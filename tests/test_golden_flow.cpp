// Golden lock on the Table-I flow: ScanSession::run_flow on the small
// benchgen profiles (s344-s713) must reproduce these FlowResult figures
// exactly, at every thread count in {1, 4}.
//
// The lock guards behaviour-preserving rewrites of the flow's engines
// (scan-shift power evaluation, ATPG, observability, fill): such a
// rewrite must keep every double bit-identical. A change that is meant to
// move results re-records the table and explains the difference. No
// thread count changes a result, so one row per profile serves both. A
// short PODEM budget keeps the lock fast.
//
// Regenerate a row by printing the same fields with "%.17g", which
// round-trips every double exactly.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "benchgen/benchgen.hpp"
#include "core/session.hpp"
#include "techmap/techmap.hpp"

namespace scanpower {
namespace {

struct GoldenPower {
  double dynamic_per_hz_uw;
  double static_uw;
  double peak_dynamic_per_hz_uw;
  double peak_leakage_na;
  std::size_t cycles;
};

struct GoldenFlow {
  const char* profile;
  std::size_t num_patterns;
  double fault_coverage;
  std::size_t num_multiplexed;
  GoldenPower traditional;
  GoldenPower input_control;
  GoldenPower proposed;
};

constexpr int kPodemBacktrackLimit = 20;

// clang-format off
const GoldenFlow kGolden[] = {
    {"s344", 74, 0.67635903919089757, 10,
     {8.0703024346257896e-08, 39.146507941831779, 1.4258024999999532e-07, 52270.719370370382, 1110},
     {6.5506668394950425e-08, 38.326567813663722, 1.1742974999999883e-07, 46892.642703703714, 1110},
     {3.5004471370604239e-08, 31.791451892252244, 6.4739250000002371e-08, 37288.552333333348, 1110}},
    {"s382", 84, 0.85822784810126584, 12,
     {1.0728564861032331e-07, 41.64376386965229, 1.9766024999999531e-07, 52865.339, 1764},
     {1.1033812648893944e-07, 42.297590166156404, 2.0004975000000475e-07, 53387.928518518514, 1764},
     {5.1439617413499617e-08, 38.819602776077154, 1.1356199999999765e-07, 47017.218888888907, 1764}},
    {"s444", 79, 0.77161862527716185, 14,
     {1.1324643953558524e-07, 46.734856335684064, 1.8575324999999766e-07, 58788.728148148177, 1659},
     {1.0651948235826304e-07, 46.362208472292565, 1.8095399999999528e-07, 58763.403074074085, 1659},
     {2.3516808655006025e-08, 36.426200517359774, 5.4067500000000004e-08, 42149.4777777778, 1659}},
    {"s510", 74, 0.46839080459770116, 5,
     {7.1363148419864606e-08, 54.32716014962466, 1.9035000000000003e-07, 68259.057407407425, 444},
     {2.6097176072234763e-08, 50.665123092792804, 4.53195000000006e-08, 57366.638259259293, 444},
     {5.7457432279909422e-09, 44.77593540405406, 8.6872500000001114e-09, 50002.210111111141, 444}},
    {"s641", 179, 0.67478354978354982, 15,
     {1.1063733419117648e-07, 93.201071374134685, 3.5761500000000002e-07, 115032.06948148138, 3401},
     {5.2410025588235168e-08, 89.256693440341209, 1.047127499999953e-07, 103231.04974074065, 3401},
     {1.3460014191176718e-08, 75.989704453102902, 3.3189750000000299e-08, 84640.247777777724, 3401}},
    {"s713", 167, 0.62863070539419086, 14,
     {1.3150974353719995e-07, 98.726363284903812, 3.2033475000000475e-07, 121242.87111111094, 3173},
     {7.484242315573769e-08, 95.832973776509988, 1.3500674999999058e-07, 110694.60514814792, 3173},
     {1.3604680327869047e-08, 80.51808143564422, 2.7479250000002363e-08, 90113.111222222098, 3173}},
};
// clang-format on

void expect_power(const char* structure, const ScanPowerResult& got,
                  const GoldenPower& want) {
  SCOPED_TRACE(structure);
  EXPECT_EQ(got.dynamic_per_hz_uw, want.dynamic_per_hz_uw);
  EXPECT_EQ(got.static_uw, want.static_uw);
  EXPECT_EQ(got.peak_dynamic_per_hz_uw, want.peak_dynamic_per_hz_uw);
  EXPECT_EQ(got.peak_leakage_na, want.peak_leakage_na);
  EXPECT_EQ(got.cycles, want.cycles);
}

class GoldenFlowTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(GoldenFlowTest, RunFlowMatchesLockedFigures) {
  const GoldenFlow& g = kGolden[std::get<0>(GetParam())];
  const int threads = std::get<1>(GetParam());
  FlowOptions opts;
  opts.tpg.podem_backtrack_limit = kPodemBacktrackLimit;
  opts.tpg.fault_sim.num_threads = threads;
  opts.observability.num_threads = threads;
  opts.fill.num_threads = threads;
  ScanSession session(map_to_nand_nor_inv(make_iscas89_like(g.profile)),
                      opts);
  const FlowResult r = session.run_flow();
  EXPECT_EQ(r.num_patterns, g.num_patterns);
  EXPECT_EQ(r.fault_coverage, g.fault_coverage);
  EXPECT_EQ(r.mux_plan.num_multiplexed, g.num_multiplexed);
  expect_power("traditional", r.traditional, g.traditional);
  expect_power("input_control", r.input_control, g.input_control);
  expect_power("proposed", r.proposed, g.proposed);
}

INSTANTIATE_TEST_SUITE_P(
    SmallProfiles, GoldenFlowTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kGolden)),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<GoldenFlowTest::ParamType>& info) {
      const GoldenFlow& g = kGolden[std::get<0>(info.param)];
      return std::string(g.profile) + "_T" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace scanpower
