// Tests for test-set file I/O.

#include <gtest/gtest.h>

#include <sstream>

#include "atpg/pattern.hpp"
#include "atpg/tpg.hpp"
#include "benchgen/benchgen.hpp"
#include "techmap/techmap.hpp"
#include "util/assert.hpp"

namespace scanpower {
namespace {

TEST(TestSetIo, RoundTrip) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const TestSet ts = generate_tests(nl);
  std::ostringstream out;
  save_test_set(out, ts);
  std::istringstream in(out.str());
  const TestSet back = load_test_set(in);
  EXPECT_EQ(back.seed, ts.seed);
  EXPECT_EQ(back.total_faults, ts.total_faults);
  EXPECT_EQ(back.detected_faults, ts.detected_faults);
  EXPECT_EQ(back.untestable_faults, ts.untestable_faults);
  ASSERT_EQ(back.patterns.size(), ts.patterns.size());
  for (std::size_t i = 0; i < ts.patterns.size(); ++i) {
    EXPECT_EQ(back.patterns[i].to_string(), ts.patterns[i].to_string());
  }
}

TEST(TestSetIo, PreservesDontCares) {
  std::istringstream in("# c\nseed 7\nstats 10 8 1 1\n01x|1x0\nx11|001\n");
  const TestSet ts = load_test_set(in);
  ASSERT_EQ(ts.patterns.size(), 2u);
  EXPECT_EQ(ts.patterns[0].pi[2], Logic::X);
  EXPECT_EQ(ts.patterns[1].ppi[2], Logic::One);
  EXPECT_EQ(ts.seed, 7u);
}

TEST(TestSetIo, RejectsInconsistentWidths) {
  std::istringstream in("01|10\n011|10\n");
  EXPECT_THROW(load_test_set(in), Error);
}

TEST(TestSetIo, RejectsMalformedStats) {
  std::istringstream in("stats 1 2\n");
  EXPECT_THROW(load_test_set(in), Error);
}

}  // namespace
}  // namespace scanpower
