// Property tests for fault-equivalence collapsing: the rules in
// src/atpg/fault.cpp that diagnosis ranking depends on. Two faults in the
// same collapse class must be detected by exactly the same patterns, so
// for any pattern set the uncollapsed fault list and the collapsed list
// (expanded through collapse_representative) must yield identical
// detection -- and therefore identical fault coverage over either
// universe.

#include <gtest/gtest.h>

#include <map>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "benchgen/benchgen.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

std::vector<TestPattern> random_patterns(const Netlist& nl, int n,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TestPattern> pats;
  for (int i = 0; i < n; ++i) pats.push_back(random_pattern(nl, rng));
  return pats;
}

struct FaultKey {
  GateId gate;
  int pin;
  bool stuck_at;
  friend auto operator<=>(const FaultKey&, const FaultKey&) = default;
};
FaultKey key(const Fault& f) { return {f.gate, f.pin, f.stuck_at}; }

// Every enumerated fault's representative must be a member of the
// collapsed list, and the collapsed list must keep only representatives.
TEST(FaultCollapse, RepresentativesSpanTheCollapsedList) {
  for (const char* name : {"s27", "s344", "s641"}) {
    const Netlist nl = map_to_nand_nor_inv(make_circuit(name));
    const auto collapsed = collapse_faults(nl);
    std::map<FaultKey, std::size_t> index;
    for (std::size_t i = 0; i < collapsed.size(); ++i) {
      index.emplace(key(collapsed[i]), i);
    }
    for (const Fault& f : enumerate_faults(nl)) {
      const Fault rep = collapse_representative(nl, f);
      EXPECT_TRUE(index.count(key(rep)))
          << name << ": rep " << rep.to_string(nl) << " of "
          << f.to_string(nl) << " not in collapsed list";
      // A representative is a fixpoint.
      EXPECT_EQ(key(collapse_representative(nl, rep)), key(rep));
    }
    for (const Fault& f : collapsed) {
      EXPECT_EQ(key(collapse_representative(nl, f)), key(f))
          << name << ": collapsed list keeps a non-representative";
    }
  }
}

// The equivalence property itself: on random pattern sets, across the
// benchgen profiles, every enumerated fault is detected exactly when its
// collapsed representative is detected -- same first detecting pattern,
// too. This is what makes diagnosing over the collapsed list lossless.
TEST(FaultCollapse, CollapsedAndUncollapsedDetectionIdentical) {
  for (const SynthProfile& profile : iscas89_profiles()) {
    if (profile.num_gates > 2000) continue;  // equivalence is structural;
                                             // the large profiles add cost,
                                             // not rule coverage
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(profile.name));
    const auto uncollapsed = enumerate_faults(nl);
    const auto collapsed = collapse_faults(nl);
    ASSERT_LT(collapsed.size(), uncollapsed.size()) << profile.name;

    std::map<FaultKey, std::size_t> rep_index;
    for (std::size_t i = 0; i < collapsed.size(); ++i) {
      rep_index.emplace(key(collapsed[i]), i);
    }

    for (int round = 0; round < 2; ++round) {
      const auto pats =
          random_patterns(nl, 80, 0xc011a95e + profile.seed + round);
      FaultSimulator fsim(nl);
      const FaultSimResult full = fsim.run(pats, uncollapsed);
      const FaultSimResult coll = fsim.run(pats, collapsed);

      std::size_t checked = 0;
      for (std::size_t fi = 0; fi < uncollapsed.size(); ++fi) {
        const Fault rep = collapse_representative(nl, uncollapsed[fi]);
        const auto it = rep_index.find(key(rep));
        ASSERT_NE(it, rep_index.end())
            << profile.name << ": " << uncollapsed[fi].to_string(nl);
        const std::size_t ri = it->second;
        ASSERT_EQ(full.detected[fi], coll.detected[ri])
            << profile.name << ": " << uncollapsed[fi].to_string(nl)
            << " vs rep " << rep.to_string(nl);
        ASSERT_EQ(full.detecting_pattern[fi], coll.detecting_pattern[ri])
            << profile.name << ": " << uncollapsed[fi].to_string(nl)
            << " vs rep " << rep.to_string(nl);
        ++checked;
      }
      EXPECT_EQ(checked, uncollapsed.size());

      // Coverage over the uncollapsed universe is identical whether it is
      // simulated directly or expanded from the collapsed result.
      std::size_t direct = 0, expanded = 0;
      for (std::size_t fi = 0; fi < uncollapsed.size(); ++fi) {
        if (full.detected[fi]) ++direct;
        const Fault rep = collapse_representative(nl, uncollapsed[fi]);
        if (coll.detected[rep_index.at(key(rep))]) ++expanded;
      }
      EXPECT_EQ(direct, expanded) << profile.name;
    }
  }
}

TEST(FaultParse, RoundTripsToString) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = enumerate_faults(nl);
  for (const Fault& f : faults) {
    const Fault back = parse_fault(nl, f.to_string(nl));
    EXPECT_EQ(back, f) << f.to_string(nl);
  }
  EXPECT_THROW(parse_fault(nl, "nosuchnet/sa0"), Error);
  EXPECT_THROW(parse_fault(nl, "G10/sa2"), Error);
  EXPECT_THROW(parse_fault(nl, "G10"), Error);
  EXPECT_THROW(parse_fault(nl, "G10.in9/sa1"), Error);
}

}  // namespace
}  // namespace scanpower
