// Packed leakage-evaluation engine: per-gate tables, per-lane packed
// leakage (2-valued and ternary), the packed Monte-Carlo observability
// engine, the packed don't-care fill and the packed min-leakage vector
// search -- all cross-checked against the scalar reference stack.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "benchgen/benchgen.hpp"
#include "core/dont_care_fill.hpp"
#include "core/find_pattern.hpp"
#include "netlist/builder.hpp"
#include "power/leakage_model.hpp"
#include "power/observability.hpp"
#include "power/packed_leakage.hpp"
#include "sim/simulator.hpp"
#include "support/reference_observability.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

// ---------- per-gate tables -------------------------------------------------

TEST(GateTables, MatchCellLeakageForEveryState) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const LeakageModel model;
  const GateLeakageTables tables(nl, model);
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const GateType t = nl.type(id);
    if (!is_combinational(t) || t == GateType::Const0 ||
        t == GateType::Const1) {
      EXPECT_TRUE(tables.leakless(id));
      EXPECT_EQ(tables.table(id), nullptr);
      continue;
    }
    const int w = tables.width(id);
    const double* tbl = tables.table(id);
    ASSERT_NE(tbl, nullptr);
    for (unsigned s = 0; s < (1u << w); ++s) {
      EXPECT_DOUBLE_EQ(tbl[s], model.cell_leakage_na(t, w, s));
    }
  }
}

TEST(GateTables, XTableMatchesExpectedLeakage) {
  NetlistBuilder b("x");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Nand, "g", {"a", "c"});
  b.add_output("g");
  const Netlist nl = b.link();
  const LeakageModel model;
  const GateLeakageTables tables(nl, model);
  const GateId g = nl.find("g");
  const double* xt = tables.xtable(g);
  ASSERT_NE(xt, nullptr);
  const Logic kVals[3] = {Logic::Zero, Logic::One, Logic::X};
  for (Logic va : kVals) {
    for (Logic vc : kVals) {
      unsigned s = 0;
      unsigned m = 0;
      if (va == Logic::One) s |= 1;
      if (va == Logic::X) m |= 1;
      if (vc == Logic::One) s |= 2;
      if (vc == Logic::X) m |= 2;
      const std::vector<Logic> ins = {va, vc};
      EXPECT_DOUBLE_EQ(xt[s | (m << 2)],
                       model.cell_expected_leakage_na(GateType::Nand, ins));
    }
  }
}

// ---------- per-lane leakage vs the scalar walk -----------------------------

// Acceptance: on every benchgen profile and every block width, every
// lane's packed leakage must equal the scalar circuit_leakage_na of the
// same vector exactly (same table doubles, same gate-ascending adds).
TEST(PackedLeakage, PerLaneMatchesScalarOnEveryProfile) {
  const LeakageModel model;
  for (const SynthProfile& profile : iscas89_profiles()) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(profile.name));
    const GateLeakageTables tables(nl, model);
    const PackedLeakageEvaluator leval(nl, tables);
    Simulator scalar(nl);
    for (int words : {1, 4}) {
      BlockSimulator sim(nl, words);
      Rng rng(0x9acced + profile.seed);
      for (GateId pi : nl.inputs()) {
        for (int w = 0; w < words; ++w) {
          sim.set_source_word(pi, w, rng.next_u64());
        }
      }
      for (GateId ff : nl.dffs()) {
        for (int w = 0; w < words; ++w) {
          sim.set_source_word(ff, w, rng.next_u64());
        }
      }
      sim.eval();
      std::vector<double> leak(sim.lanes());
      leval.eval(sim, leak);

      // Check a spread of lanes against the scalar stack.
      for (std::size_t lane = 0; lane < sim.lanes();
           lane += (profile.num_gates > 1000 ? 37 : 7)) {
        const std::size_t w = lane / 64;
        for (GateId pi : nl.inputs()) {
          scalar.set_input(pi,
                           from_bool((sim.word(pi, static_cast<int>(w)) >>
                                      (lane % 64)) &
                                     1));
        }
        for (GateId ff : nl.dffs()) {
          scalar.set_state(ff,
                           from_bool((sim.word(ff, static_cast<int>(w)) >>
                                      (lane % 64)) &
                                     1));
        }
        scalar.eval_incremental();
        const double ref = model.circuit_leakage_na(nl, scalar.values());
        EXPECT_EQ(leak[lane], ref)
            << profile.name << " W=" << words << " lane=" << lane;
      }
    }
  }
}

TEST(PackedLeakage, TernaryMatchesScalarWithXSources) {
  const LeakageModel model;
  for (const char* name : {"s344", "s1423"}) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(name));
    const GateLeakageTables tables(nl, model);
    const PackedLeakageEvaluator leval(nl, tables);
    TernaryBlockSimulator sim(nl, 1);
    Simulator scalar(nl);
    Rng rng(0x7e17a);

    // Lane 0..63 all share the same X sources (every third source), with
    // random known values elsewhere -- the don't-care-fill shape.
    std::vector<GateId> sources;
    for (GateId pi : nl.inputs()) sources.push_back(pi);
    for (GateId ff : nl.dffs()) sources.push_back(ff);
    for (std::size_t j = 0; j < sources.size(); ++j) {
      if (j % 3 == 0) {
        sim.set_source_all(sources[j], Logic::X);
      } else {
        sim.set_source_word(sources[j], 0, rng.next_u64());
      }
    }
    sim.eval();
    std::vector<double> leak(sim.lanes());
    leval.eval(sim, leak);

    for (std::size_t lane = 0; lane < 64; lane += 9) {
      for (std::size_t j = 0; j < sources.size(); ++j) {
        scalar.set_source(sources[j], sim.lane_value(sources[j], lane));
      }
      scalar.eval_incremental();
      // The ternary planes must agree with the scalar Kleene values...
      for (GateId id = 0; id < nl.num_gates(); ++id) {
        ASSERT_EQ(sim.lane_value(id, lane), scalar.value(id))
            << name << " gate " << nl.gate_name(id) << " lane " << lane;
      }
      // ...and so must the X-aware expected leakage.
      const double ref = model.circuit_leakage_na(nl, scalar.values());
      EXPECT_EQ(leak[lane], ref) << name << " lane=" << lane;
    }
  }
}

// ---------- packed Monte-Carlo observability --------------------------------

// Acceptance: at a fixed seed the packed reduction must be bit-identical
// across thread counts, for every profile.
TEST(PackedObservability, BitIdenticalAcrossThreadCounts) {
  const LeakageModel model;
  for (const SynthProfile& profile : iscas89_profiles()) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(profile.name));
    std::vector<double> ref;
    double ref_mean = 0.0;
    for (int threads : {1, 4}) {
      ObservabilityOptions opts;
      opts.samples = 96;  // deliberately not a multiple of the lane count
      opts.num_threads = threads;
      const LeakageObservability obs(nl, model, opts);
      if (threads == 1) {
        ref = obs.values();
        ref_mean = obs.mean_leakage_na();
        continue;
      }
      ASSERT_EQ(obs.values().size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(obs.values()[i], ref[i]) << profile.name << " gate " << i;
      }
      ASSERT_EQ(obs.mean_leakage_na(), ref_mean) << profile.name;
    }
  }
}

// The packed engine equals the scalar per-sample oracle, which replays its
// sample stream and reduction order, bit for bit: 96 samples leave most of
// one block masked, 512 fill two blocks.
TEST(PackedObservability, MatchesReferenceOracleExactly) {
  const LeakageModel model;
  for (const SynthProfile& profile : iscas89_profiles()) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(profile.name));
    for (int samples : {96, 512}) {
      ObservabilityOptions opts;
      opts.samples = samples;
      const oracle::ReferenceObservability ref =
          oracle::reference_observability(nl, model, opts);
      for (int threads : {1, 4}) {
        opts.num_threads = threads;
        const LeakageObservability obs(nl, model, opts);
        const std::string tag = profile.name + " samples=" +
                                std::to_string(samples) +
                                " T=" + std::to_string(threads);
        EXPECT_EQ(obs.mean_leakage_na(), ref.mean_leakage_na) << tag;
        ASSERT_EQ(obs.values().size(), ref.values.size()) << tag;
        for (std::size_t i = 0; i < ref.values.size(); ++i) {
          ASSERT_EQ(obs.values()[i], ref.values[i]) << tag << " gate " << i;
        }
      }
    }
  }
}

// On a single inverter the conditional averages are exact whatever the
// sample stream: obs(a) = L(1) - L(0) = -61 nA.
TEST(PackedObservability, InverterExactValue) {
  NetlistBuilder b("inv");
  b.add_input("a");
  b.add_gate(GateType::Not, "y", {"a"});
  b.add_output("y");
  const Netlist nl = b.link();
  const LeakageModel model;
  ObservabilityOptions opts;
  opts.samples = 300;
  const LeakageObservability obs(nl, model, opts);
  EXPECT_NEAR(obs.obs(nl.find("a")), -61.0, 1e-6);
}

// ---------- packed don't-care fill ------------------------------------------

// The packed fill draws the scalar engine's random stream and computes
// bit-identical leakage, so both engines must choose the same fill.
TEST(PackedFill, MatchesScalarFillExactly) {
  const LeakageModel model;
  for (const char* name : {"s344", "s382", "s1423"}) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(name));
    // All PIs free, every second scan cell multiplexed and free.
    std::vector<bool> eligible(nl.dffs().size());
    for (std::size_t i = 0; i < eligible.size(); ++i) eligible[i] = i % 2 == 0;

    for (int trials : {1, 64, 300}) {
      FillOptions sopts;
      sopts.trials = trials;
      sopts.packed = false;
      std::vector<Logic> spi(nl.inputs().size(), Logic::X);
      std::vector<Logic> smux(nl.dffs().size(), Logic::X);
      const FillResult sres = fill_dont_cares_min_leakage(
          nl, model, spi, smux, eligible, sopts);

      FillOptions popts = sopts;
      popts.packed = true;  // 300 trials still span two 256-lane blocks
      std::vector<Logic> ppi(nl.inputs().size(), Logic::X);
      std::vector<Logic> pmux(nl.dffs().size(), Logic::X);
      const FillResult pres = fill_dont_cares_min_leakage(
          nl, model, ppi, pmux, eligible, popts);

      EXPECT_EQ(ppi, spi) << name << " trials=" << trials;
      EXPECT_EQ(pmux, smux) << name << " trials=" << trials;
      EXPECT_NEAR(pres.best_leakage_na, sres.best_leakage_na,
                  std::abs(sres.best_leakage_na) * 1e-9);
      EXPECT_NEAR(pres.first_leakage_na, sres.first_leakage_na,
                  std::abs(sres.first_leakage_na) * 1e-9);
      EXPECT_EQ(pres.trials, sres.trials);
      EXPECT_EQ(pres.free_inputs, sres.free_inputs);
    }
  }
}

TEST(PackedFill, NoFreeInputsMatchesScalar) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel model;
  std::vector<Logic> pi(nl.inputs().size(), Logic::One);
  std::vector<Logic> mux(nl.dffs().size(), Logic::X);
  std::vector<bool> eligible(nl.dffs().size(), false);
  FillOptions opts;
  opts.packed = true;
  const FillResult packed =
      fill_dont_cares_min_leakage(nl, model, pi, mux, eligible, opts);
  opts.packed = false;
  const FillResult scalar =
      fill_dont_cares_min_leakage(nl, model, pi, mux, eligible, opts);
  EXPECT_EQ(packed.free_inputs, 0u);
  EXPECT_NEAR(packed.best_leakage_na, scalar.best_leakage_na,
              std::abs(scalar.best_leakage_na) * 1e-9);
}

// ---------- packed min-leakage vector search --------------------------------

TEST(MinLeakageSearch, FindsExhaustiveMinimumOnS27) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel model;

  // Exhaustive reference over the 2^7 source assignments.
  Simulator sim(nl);
  const std::size_t n_src = nl.inputs().size() + nl.dffs().size();
  ASSERT_LE(n_src, 20u);
  double exact = 1e300;
  for (std::uint64_t v = 0; v < (1ull << n_src); ++v) {
    unsigned k = 0;
    for (GateId pi : nl.inputs()) sim.set_input(pi, from_bool((v >> k++) & 1));
    for (GateId ff : nl.dffs()) sim.set_state(ff, from_bool((v >> k++) & 1));
    sim.eval_incremental();
    exact = std::min(exact, model.circuit_leakage_na(nl, sim.values()));
  }

  MinLeakageSearchOptions opts;
  opts.sweeps = 4;
  const MinLeakageSearchResult res = min_leakage_vector_search(nl, model, opts);
  EXPECT_LE(res.best_leakage_na, res.random_best_na + 1e-12);
  EXPECT_NEAR(res.best_leakage_na, exact, std::abs(exact) * 1e-9);
  EXPECT_EQ(res.pi.size(), nl.inputs().size());
  EXPECT_EQ(res.ppi.size(), nl.dffs().size());

  // The reported vector reproduces the reported leakage.
  unsigned k2 = 0;
  std::uint64_t bits = 0;
  for (Logic v : res.pi) bits |= static_cast<std::uint64_t>(v == Logic::One) << k2++;
  for (Logic v : res.ppi) bits |= static_cast<std::uint64_t>(v == Logic::One) << k2++;
  unsigned k3 = 0;
  for (GateId pi : nl.inputs()) sim.set_input(pi, from_bool((bits >> k3++) & 1));
  for (GateId ff : nl.dffs()) sim.set_state(ff, from_bool((bits >> k3++) & 1));
  sim.eval_incremental();
  EXPECT_NEAR(model.circuit_leakage_na(nl, sim.values()), res.best_leakage_na,
              std::abs(res.best_leakage_na) * 1e-9);
}

TEST(MinLeakageSearch, DeterministicAcrossThreadCounts) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s1423"));
  const LeakageModel model;
  MinLeakageSearchOptions opts;
  opts.sweeps = 4;
  opts.max_refine_flips = 8;
  opts.num_threads = 1;
  const MinLeakageSearchResult a = min_leakage_vector_search(nl, model, opts);
  opts.num_threads = 4;
  const MinLeakageSearchResult b = min_leakage_vector_search(nl, model, opts);
  EXPECT_EQ(a.pi, b.pi);
  EXPECT_EQ(a.ppi, b.ppi);
  EXPECT_EQ(a.best_leakage_na, b.best_leakage_na);
  EXPECT_EQ(a.random_best_na, b.random_best_na);
  EXPECT_EQ(a.refine_flips, b.refine_flips);
}

TEST(MinLeakageSearch, RefinementNeverWorseThanRandomStage) {
  const LeakageModel model;
  for (const char* name : {"s344", "s641"}) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(name));
    MinLeakageSearchOptions opts;
    opts.sweeps = 2;
    const MinLeakageSearchResult res =
        min_leakage_vector_search(nl, model, opts);
    EXPECT_LE(res.best_leakage_na, res.random_best_na + 1e-12) << name;
    EXPECT_GT(res.best_leakage_na, 0.0) << name;
  }
}

}  // namespace
}  // namespace scanpower
