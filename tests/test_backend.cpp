// Backend cross-check suite: the house determinism rule applied to the
// kernel-backend axis. Every backend available on this host must produce
// results bit-identical to the scalar reference engine -- fault-sim
// detections, diagnosis rankings (and suspect sets), observability sums
// and fill choices -- at every thread count in kThreads, on the
// benchgen ISCAS89-like profiles and on the degenerate netlist shapes
// from test_degenerate.cpp.
//
// Backends that the host cannot run (AVX TUs compiled out, CPU without
// the features) are covered by the CI matrix on hosts that do have them;
// on a host that runs neither, every cross-check reports itself skipped
// (naming the missing backends) instead of passing without comparing.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/packed_sim.hpp"
#include "atpg/sim_backend.hpp"
#include "benchgen/benchgen.hpp"
#include "core/dont_care_fill.hpp"
#include "diag/response.hpp"
#include "netlist/builder.hpp"
#include "power/leakage_model.hpp"
#include "power/observability.hpp"
#include "support/diag_session.hpp"
#include "techmap/techmap.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

// ---------- matrix helpers --------------------------------------------------

/// Non-scalar backends runnable on this host (scalar is the reference).
std::vector<SimBackend> backends_under_test() {
  std::vector<SimBackend> v;
  if (backend_available(SimBackend::Avx2)) v.push_back(SimBackend::Avx2);
  if (backend_available(SimBackend::Avx512)) v.push_back(SimBackend::Avx512);
  return v;
}

/// Skip reason for a host that runs no backend besides scalar.
std::string no_backend_note() {
  std::string note = "nothing cross-checked against scalar, missing";
  const char* sep = ": ";
  for (SimBackend b : {SimBackend::Avx2, SimBackend::Avx512}) {
    note += sep + std::string(backend_name(b)) +
            (backend_compiled(b) ? " (CPU lacks the features)"
                                 : " (not compiled)");
    sep = ", ";
  }
  return note;
}

/// The thread counts every backend runs.
constexpr int kThreads[] = {1, 4};

std::vector<TestPattern> random_patterns(const Netlist& nl, int n,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TestPattern> pats;
  pats.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pats.push_back(random_pattern(nl, rng));
  return pats;
}

// Degenerate shapes (same as test_degenerate.cpp): a single gate, an
// output wired straight to an input, and a DFF-only shift path.
Netlist single_gate_netlist() {
  NetlistBuilder b("one_gate");
  b.add_input("a");
  b.add_gate(GateType::Not, "y", {"a"});
  b.add_output("y");
  return b.link();
}

Netlist po_from_pi_netlist() {
  NetlistBuilder b("wire");
  b.add_input("a");
  b.add_input("b");
  b.add_gate(GateType::Not, "y", {"b"});
  b.add_output("a");
  b.add_output("y");
  return b.link();
}

Netlist all_dff_netlist() {
  NetlistBuilder b("shift3");
  b.add_input("si");
  b.add_gate(GateType::Dff, "q1", {"si"});
  b.add_gate(GateType::Dff, "q2", {"q1"});
  b.add_gate(GateType::Dff, "q3", {"q2"});
  b.add_output("q3");
  return b.link();
}

// ---------- selection contract ----------------------------------------------

TEST(BackendApi, NameParseRoundTrip) {
  for (SimBackend b : {SimBackend::Auto, SimBackend::Scalar, SimBackend::Avx2,
                       SimBackend::Avx512}) {
    SimBackend back = SimBackend::Auto;
    ASSERT_TRUE(parse_backend(backend_name(b), &back)) << backend_name(b);
    EXPECT_EQ(back, b);
  }
  SimBackend out;
  EXPECT_FALSE(parse_backend("sse9", &out));
  EXPECT_FALSE(parse_backend("", &out));
  EXPECT_FALSE(parse_backend("wide", &out));
}

TEST(BackendApi, WidthSupportMatrix) {
  // Every backend that runs here runs every valid width.
  for (int w : kBlockWords) {
    EXPECT_TRUE(is_valid_block_width(w));
    for (SimBackend b :
         {SimBackend::Scalar, SimBackend::Avx2, SimBackend::Avx512}) {
      if (backend_available(b)) EXPECT_EQ(resolve_backend(b, w), b);
    }
  }
  for (int w : {0, 3, 8, 16, 32, 64}) {
    EXPECT_FALSE(is_valid_block_width(w)) << "w=" << w;
    EXPECT_THROW(resolve_backend(SimBackend::Auto, w), Error) << "w=" << w;
  }
}

TEST(BackendApi, ExplicitRequestsAreHardContracts) {
  // Scalar always resolves, at every width.
  for (int w : kBlockWords) {
    EXPECT_EQ(resolve_backend(SimBackend::Scalar, w), SimBackend::Scalar);
  }
  // Unavailable explicit requests throw; so do invalid widths, whatever
  // the backend.
  if (backend_available(SimBackend::Avx2)) {
    EXPECT_EQ(resolve_backend(SimBackend::Avx2, 4), SimBackend::Avx2);
  } else {
    EXPECT_THROW(resolve_backend(SimBackend::Avx2, 4), Error);
  }
  if (!backend_available(SimBackend::Avx512)) {
    EXPECT_THROW(resolve_backend(SimBackend::Avx512, 4), Error);
  }
  for (int w : {3, 5, 8, 16, 32}) {
    EXPECT_THROW(resolve_backend(SimBackend::Scalar, w), Error) << "w=" << w;
  }
}

// Auto resolution, including the SCANPOWER_FORCE_BACKEND steering that
// the CI matrix uses: a forced backend wins exactly when it is available;
// otherwise detection falls back gracefully (never an error). The test
// honors whatever environment it runs under.
TEST(BackendApi, AutoResolvesToForcedOrBestAvailable) {
  SimBackend forced = SimBackend::Auto;
  if (const char* env = std::getenv("SCANPOWER_FORCE_BACKEND")) {
    if (env[0] != '\0' && !parse_backend(env, &forced)) {
      forced = SimBackend::Auto;
    }
  }
  for (int w : kBlockWords) {
    const SimBackend r = resolve_backend(SimBackend::Auto, w);
    EXPECT_NE(r, SimBackend::Auto);
    EXPECT_TRUE(backend_available(r));
    if (forced != SimBackend::Auto && backend_available(forced)) {
      EXPECT_EQ(r, forced) << "w=" << w;
    } else {
      EXPECT_EQ(r, detect_best_backend()) << "w=" << w;
    }
  }
}

TEST(BackendApi, ScalarAlwaysAvailable) {
  EXPECT_TRUE(backend_available(SimBackend::Scalar));
  EXPECT_TRUE(backend_compiled(SimBackend::Scalar));
}

// ---------- fault simulation ------------------------------------------------

void expect_same_fault_sim(const FaultSimResult& ref, const FaultSimResult& got,
                           const std::string& what) {
  EXPECT_EQ(ref.detected, got.detected) << what;
  EXPECT_EQ(ref.detecting_pattern, got.detecting_pattern) << what;
  EXPECT_EQ(ref.new_detects_per_pattern, got.new_detects_per_pattern) << what;
  EXPECT_EQ(ref.num_detected, got.num_detected) << what;
}

void cross_check_fault_sim(const Netlist& nl, const std::string& name) {
  if (backends_under_test().empty()) GTEST_SKIP() << no_backend_note();
  const auto faults = collapse_faults(nl);
  ASSERT_FALSE(faults.empty()) << name;
  const auto pats = random_patterns(nl, 48, 0xbac0 + nl.num_gates());

  for (SimBackend b : backends_under_test()) {
    for (int t : kThreads) {
      FaultSimOptions ref_opts;
      ref_opts.backend = SimBackend::Scalar;
      FaultSimulator ref_sim(nl, ref_opts);
      const FaultSimResult ref = ref_sim.run(pats, faults);

      FaultSimOptions opts;
      opts.num_threads = t;
      opts.backend = b;
      FaultSimulator sim(nl, opts);
      expect_same_fault_sim(ref, sim.run(pats, faults),
                            name + " backend=" + backend_name(b) +
                                " T=" + std::to_string(t));
    }
  }
}

class BackendProfileTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendProfileTest, FaultSimMatchesScalar) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(GetParam()));
  cross_check_fault_sim(nl, GetParam());
}

std::vector<std::string> all_profile_names() {
  std::vector<std::string> names;
  for (const SynthProfile& p : iscas89_profiles()) names.push_back(p.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, BackendProfileTest,
                         ::testing::ValuesIn(all_profile_names()),
                         [](const auto& info) { return info.param; });

class BackendDegenerateTest : public ::testing::TestWithParam<int> {
 protected:
  Netlist make() const {
    switch (GetParam()) {
      case 0: return single_gate_netlist();
      case 1: return po_from_pi_netlist();
      default: return all_dff_netlist();
    }
  }
};

TEST_P(BackendDegenerateTest, FaultSimMatchesScalar) {
  const Netlist nl = make();
  cross_check_fault_sim(nl, nl.name());
}

INSTANTIATE_TEST_SUITE_P(Shapes, BackendDegenerateTest,
                         ::testing::Values(0, 1, 2));

// ---------- diagnosis rankings ----------------------------------------------

void expect_same_diagnosis(const DiagnosisResult& ref,
                           const DiagnosisResult& got,
                           const std::string& what) {
  ASSERT_EQ(ref.ranked.size(), got.ranked.size()) << what;
  for (std::size_t i = 0; i < ref.ranked.size(); ++i) {
    EXPECT_EQ(ref.ranked[i].fault, got.ranked[i].fault) << what << " i=" << i;
    EXPECT_EQ(ref.ranked[i].fault_index, got.ranked[i].fault_index)
        << what << " i=" << i;
    EXPECT_EQ(ref.ranked[i].tfsf, got.ranked[i].tfsf) << what << " i=" << i;
    EXPECT_EQ(ref.ranked[i].tfsp, got.ranked[i].tfsp) << what << " i=" << i;
    EXPECT_EQ(ref.ranked[i].tpsf, got.ranked[i].tpsf) << what << " i=" << i;
    EXPECT_EQ(ref.ranked[i].dropped, got.ranked[i].dropped)
        << what << " i=" << i;
  }
  ASSERT_EQ(ref.multiplets.size(), got.multiplets.size()) << what;
  for (std::size_t s = 0; s < ref.multiplets.size(); ++s) {
    ASSERT_EQ(ref.multiplets[s].members.size(),
              got.multiplets[s].members.size())
        << what << " set=" << s;
    for (std::size_t i = 0; i < ref.multiplets[s].members.size(); ++i) {
      EXPECT_EQ(ref.multiplets[s].members[i].fault,
                got.multiplets[s].members[i].fault)
          << what << " set=" << s << " i=" << i;
    }
    EXPECT_EQ(ref.multiplets[s].covered, got.multiplets[s].covered) << what;
    EXPECT_EQ(ref.multiplets[s].uncovered, got.multiplets[s].uncovered)
        << what;
  }
  EXPECT_EQ(ref.union_fallback, got.union_fallback) << what;
  EXPECT_EQ(ref.num_candidates, got.num_candidates) << what;
  EXPECT_EQ(ref.num_dropped, got.num_dropped) << what;
}

TEST(BackendCrossCheck, DiagnosisRankingsMatchScalar) {
  if (backends_under_test().empty()) GTEST_SKIP() << no_backend_note();
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(nl, 64, 0xd1a6);
  ResponseCapture cap(nl);
  // A single-fault log and a two-fault (multiplet-exercising) log, built
  // from faults the pattern set actually detects.
  FaultSimulator fsim(nl, {});
  const FaultSimResult fres = fsim.run(pats, faults);
  std::vector<Fault> detected;
  for (std::size_t i = 0; i < faults.size() && detected.size() < 2; ++i) {
    // Distinct gates, so the pair is a consistent two-fault machine.
    if (fres.detected[i] &&
        (detected.empty() || detected[0].gate != faults[i].gate)) {
      detected.push_back(faults[i]);
    }
  }
  ASSERT_EQ(detected.size(), 2u);
  FailureLog single = cap.inject(pats, detected[0]);
  ASSERT_FALSE(single.failures.empty());
  FailureLog twin = cap.inject(pats, std::span<const Fault>(detected));
  const auto ctx = std::make_shared<const DesignContext>(Netlist(nl));
  for (const FailureLog* log : {&single, &twin}) {
    for (SimBackend b : backends_under_test()) {
      for (int t : kThreads) {
        DiagnosisOptions ref_opts;
        ref_opts.backend = SimBackend::Scalar;
        const DiagnosisResult ref = diagnose_once(ctx, pats, *log, ref_opts);

        DiagnosisOptions opts;
        opts.backend = b;
        opts.num_threads = t;
        expect_same_diagnosis(ref, diagnose_once(ctx, pats, *log, opts),
                              std::string("backend=") + backend_name(b) +
                                  " T=" + std::to_string(t));
      }
    }
  }
}

// ---------- observability sums ----------------------------------------------

TEST(BackendCrossCheck, ObservabilitySumsMatchScalar) {
  if (backends_under_test().empty()) GTEST_SKIP() << no_backend_note();
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s444"));
  const LeakageModel model;
  ObservabilityOptions ref_opts;
  ref_opts.samples = 512;
  ref_opts.backend = SimBackend::Scalar;
  const LeakageObservability ref(nl, model, ref_opts);
  for (SimBackend b : backends_under_test()) {
    for (int t : {1, 4}) {
      ObservabilityOptions opts = ref_opts;
      opts.backend = b;
      opts.num_threads = t;
      const LeakageObservability got(nl, model, opts);
      const std::string what = std::string("backend=") + backend_name(b) +
                               " T=" + std::to_string(t);
      // Bit-identical doubles: the masked-add reduction has one defined
      // accumulation order shared by every backend.
      EXPECT_EQ(ref.values(), got.values()) << what;
      EXPECT_EQ(ref.mean_leakage_na(), got.mean_leakage_na()) << what;
    }
  }
}

// ---------- fill choices ----------------------------------------------------

TEST(BackendCrossCheck, FillChoicesMatchScalar) {
  if (backends_under_test().empty()) GTEST_SKIP() << no_backend_note();
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const LeakageModel model;
  const std::vector<bool> eligible(nl.dffs().size(), true);
  // Enough trials for several full-width candidate blocks.
  FillOptions ref_opts;
  ref_opts.trials = 4096;
  ref_opts.backend = SimBackend::Scalar;
  std::vector<Logic> ref_pi(nl.inputs().size(), Logic::X);
  std::vector<Logic> ref_mux(nl.dffs().size(), Logic::X);
  const FillResult ref = fill_dont_cares_min_leakage(nl, model, ref_pi,
                                                     ref_mux, eligible, ref_opts);
  for (SimBackend b : backends_under_test()) {
    for (int t : {1, 4}) {
      FillOptions opts = ref_opts;
      opts.backend = b;
      opts.num_threads = t;
      std::vector<Logic> pi(nl.inputs().size(), Logic::X);
      std::vector<Logic> mux(nl.dffs().size(), Logic::X);
      const FillResult got =
          fill_dont_cares_min_leakage(nl, model, pi, mux, eligible, opts);

      const std::string what = std::string("backend=") + backend_name(b) +
                               " T=" + std::to_string(t);
      EXPECT_EQ(ref_pi, pi) << what;
      EXPECT_EQ(ref_mux, mux) << what;
      EXPECT_EQ(ref.best_leakage_na, got.best_leakage_na) << what;
      EXPECT_EQ(ref.first_leakage_na, got.first_leakage_na) << what;
      EXPECT_EQ(ref.free_inputs, got.free_inputs) << what;
    }
  }
}

// The threaded fill must also be bit-identical to serial at a fixed
// backend/width -- the per-64-trial-word seeding satellite on its own.
TEST(BackendCrossCheck, ThreadedFillMatchesSerial) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const LeakageModel model;
  const std::vector<bool> eligible(nl.dffs().size(), true);
  FillOptions serial;
  serial.trials = 1024;  // four 256-candidate blocks
  serial.num_threads = 1;
  std::vector<Logic> ref_pi(nl.inputs().size(), Logic::X);
  std::vector<Logic> ref_mux(nl.dffs().size(), Logic::X);
  const FillResult ref = fill_dont_cares_min_leakage(nl, model, ref_pi,
                                                     ref_mux, eligible, serial);
  for (int t : {2, 4, 0}) {
    FillOptions opts = serial;
    opts.num_threads = t;
    std::vector<Logic> pi(nl.inputs().size(), Logic::X);
    std::vector<Logic> mux(nl.dffs().size(), Logic::X);
    const FillResult got =
        fill_dont_cares_min_leakage(nl, model, pi, mux, eligible, opts);
    EXPECT_EQ(ref_pi, pi) << "T=" << t;
    EXPECT_EQ(ref_mux, mux) << "T=" << t;
    EXPECT_EQ(ref.best_leakage_na, got.best_leakage_na) << "T=" << t;
    EXPECT_EQ(ref.first_leakage_na, got.first_leakage_na) << "T=" << t;
  }
}

}  // namespace
}  // namespace scanpower
