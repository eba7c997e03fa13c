// Golden lock on the Table-I flow: ScanSession::run_flow on the small
// benchgen profiles (s344-s713) must reproduce these FlowResult figures
// exactly, at every (fault-sim block words, threads) configuration in
// {1,4}^2.
//
// The lock guards behaviour-preserving rewrites of the flow's engines
// (scan-shift power evaluation, ATPG, observability, fill): such a
// rewrite must keep every double bit-identical. A change that is meant to
// move results re-records the table and explains the difference. No
// configuration changes a result -- ATPG batches are a fixed 256
// patterns, and the observability and fill engines choose their own
// block width -- so one row per profile serves all four. A short PODEM
// budget keeps the lock fast.
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
    {"s444", 79, 0.76718403547671843, 14,
     {1.1310796275633325e-07, 46.696689890958339, 1.8901349999999882e-07, 58788.728148148177, 1659},
     {1.0697641420386022e-07, 46.395304735744425, 1.815615000000012e-07, 58763.403074074085, 1659},
     {2.3675046893847988e-08, 36.437099879023421, 5.4026999999997655e-08, 42149.4777777778, 1659}},
    {"s510", 73, 0.46455938697318006, 5,
     {7.2742772883295247e-08, 54.327247632800656, 1.8536849999999885e-07, 70054.619000000006, 438},
     {2.6997327803203673e-08, 50.667337358904099, 4.53195000000006e-08, 57366.638259259293, 438},
     {5.9041493135011145e-09, 44.776706294063935, 8.6872500000001114e-09, 50002.210111111141, 438}},
    {"s641", 166, 0.66774891774891776, 15,
     {1.0877467649857288e-07, 92.925754772162122, 3.3240375000000004e-07, 114331.70592592581, 3154},
     {5.1679207421503307e-08, 89.252200087772167, 1.0293075000000944e-07, 103231.04974074065, 3154},
     {1.3370504043768042e-08, 75.988330116678284, 3.3189750000000299e-08, 84640.247777777724, 3154}},
    {"s713", 151, 0.61773858921161828, 14,
     {1.3334701255230085e-07, 98.725135274485467, 3.1509000000000005e-07, 122830.91614814795, 2869},
     {7.6286177039748972e-08, 95.813404504182586, 1.3500674999999058e-07, 110984.02848148126, 2869},
     {1.3909165794979271e-08, 80.513288811746136, 2.7479250000002363e-08, 90113.111222222098, 2869}},
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
    : public ::testing::TestWithParam<std::tuple<std::size_t, int, int>> {};

TEST_P(GoldenFlowTest, RunFlowMatchesLockedFigures) {
  const GoldenFlow& g = kGolden[std::get<0>(GetParam())];
  const int words = std::get<1>(GetParam());
  const int threads = std::get<2>(GetParam());
  FlowOptions opts;
  opts.tpg.podem_backtrack_limit = kPodemBacktrackLimit;
  opts.tpg.fault_sim.block_words = words;
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
                       ::testing::Values(1, 4), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<GoldenFlowTest::ParamType>& info) {
      const GoldenFlow& g = kGolden[std::get<0>(info.param)];
      return std::string(g.profile) + "_W" +
             std::to_string(std::get<1>(info.param)) + "_T" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace scanpower
