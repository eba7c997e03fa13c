// Exhaustive oracle for PODEM's verdicts. On netlists with few sources
// every source assignment is enumerated as a fully specified pattern and
// fault-simulated, independently of any search:
//  - a fault PODEM proves Untestable is detected by no assignment;
//  - a Detected pattern detects its fault with its X bits filled all-0
//    and all-1 (a 3-valued detection holds under every fill).
// Untestable verdicts set the reported fault coverage and drive
// redundancy removal, and PODEM's dead-end checks (empty D-frontier,
// X-path) prune the search, so each proof is checked here against the
// whole input space rather than against another search.
//
// Covers s27, the corner netlist and the seeded random mixed netlists
// (DFF pin faults included), and every collapsed fault of s1494 (14
// sources: 16,384 patterns, 64 sweep blocks), all at the production
// backtrack limit with no fault left aborted.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/podem.hpp"
#include "benchgen/benchgen.hpp"
#include "support/podem_cases.hpp"
#include "support/random_netlist.hpp"
#include "techmap/techmap.hpp"

namespace scanpower {
namespace {

/// Every assignment of the netlist's sources (PIs, then DFF outputs).
std::vector<TestPattern> all_assignments(const Netlist& nl) {
  const std::size_t npi = nl.inputs().size();
  const std::size_t n = npi + nl.dffs().size();
  EXPECT_LE(n, 16u) << nl.name() << ": too many sources to enumerate";
  std::vector<TestPattern> out(std::size_t{1} << n);
  for (std::size_t a = 0; a < out.size(); ++a) {
    TestPattern& p = out[a];
    for (std::size_t i = 0; i < n; ++i) {
      const Logic v = from_bool(((a >> i) & 1) != 0);
      (i < npi ? p.pi : p.ppi).push_back(v);
    }
  }
  return out;
}

struct VerdictCounts {
  std::size_t detected = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;
};

/// Runs PODEM on every fault of `faults` and checks each verdict against
/// exhaustive simulation; mismatches are reported as test failures.
VerdictCounts check_verdicts(const Netlist& nl,
                             const std::vector<Fault>& faults,
                             int backtrack_limit) {
  PodemOptions opts;
  opts.backtrack_limit = backtrack_limit;
  Podem podem(nl, opts);
  FaultSimulator fsim(nl);
  VerdictCounts counts;
  std::vector<Fault> untestable;
  for (const Fault& f : faults) {
    const PodemResult r = podem.generate(f);
    if (r.status == PodemStatus::Untestable) {
      untestable.push_back(f);
    } else if (r.status == PodemStatus::Aborted) {
      ++counts.aborted;
    } else {
      ++counts.detected;
      EXPECT_TRUE(pattern_detects(fsim, r.pattern, f))
          << nl.name() << " " << f.to_string(nl) << ": pattern "
          << r.pattern.to_string() << " misses the fault under a fill";
    }
  }
  counts.untestable = untestable.size();
  const std::vector<TestPattern> space = all_assignments(nl);
  const FaultSimResult res = fsim.run(space, untestable);
  for (std::size_t i = 0; i < untestable.size(); ++i) {
    EXPECT_FALSE(res.detected[i])
        << nl.name() << " " << untestable[i].to_string(nl)
        << " proved untestable, but assignment "
        << space[res.detecting_pattern[i]].to_string() << " detects it";
  }
  return counts;
}

TEST(PodemVerdicts, S27) {
  const Netlist nl = map_to_nand_nor_inv(make_circuit("s27"));
  const VerdictCounts c =
      check_verdicts(nl, every_fault_with_dff_pins(nl), 4000);
  EXPECT_GT(c.detected, 0u);
  EXPECT_EQ(c.aborted, 0u);
}

TEST(PodemVerdicts, CornerNetlist) {
  const Netlist nl = corner_netlist();
  const VerdictCounts c =
      check_verdicts(nl, every_fault_with_dff_pins(nl), 4000);
  EXPECT_GT(c.detected, 0u);
  EXPECT_GT(c.untestable, 0u);  // the constant-0 AND's logic is redundant
  EXPECT_EQ(c.aborted, 0u);
}

TEST(PodemVerdicts, RandomMixedGateNetlists) {
  std::size_t untestable = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Netlist nl =
        random_mixed_netlist(seed, 40 + 5 * static_cast<int>(seed));
    const VerdictCounts c =
        check_verdicts(nl, every_fault_with_dff_pins(nl), 4000);
    EXPECT_EQ(c.aborted, 0u) << nl.name();
    untestable += c.untestable;
  }
  EXPECT_GT(untestable, 0u);
}

TEST(PodemVerdicts, S1494) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s1494"));
  const VerdictCounts c = check_verdicts(nl, collapse_faults(nl), 4000);
  EXPECT_GT(c.detected, 0u);
  EXPECT_GT(c.untestable, 0u);
  EXPECT_EQ(c.aborted, 0u);
}

}  // namespace
}  // namespace scanpower
