// Noise-robust diagnosis: the tester-noise model, exact multi-fault
// injection, multiplet suspect sets and the union-pruning fallback.
//
// Acceptance criteria for the subsystem, checked across every benchgen
// profile:
//  (a) injected detected fault pairs are recovered in the top suspect set
//      (up to single-fault-log equivalence) in >= 90% of trials;
//  (b) single faults diagnosed from a log under seeded 5% drop + 5% flip
//      corruption still rank top-3 in >= 90% of trials;
//  (c) rankings AND suspect sets are bit-identical across every
//      num_threads in {1, 4};
//  (d) malformed logs yield typed line-numbered errors (test_diag.cpp /
//      test_compact.cpp cover the text loaders; the in-memory session
//      check is covered here).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "benchgen/benchgen.hpp"
#include "compact/signature_log.hpp"
#include "core/session.hpp"
#include "diag/diagnose.hpp"
#include "diag/noise.hpp"
#include "diag/response.hpp"
#include "netlist/builder.hpp"
#include "support/diag_session.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

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

bool same_failures(const FailureLog& a, const FailureLog& b) {
  return a.num_patterns == b.num_patterns && a.failures == b.failures;
}

/// A synthetic "big" failure log for calibration tests: `n` failing
/// records spread over a (patterns x points) space much larger than n.
FailureLog big_log(std::size_t n, std::size_t num_patterns,
                   std::size_t num_points) {
  FailureLog log;
  log.num_patterns = num_patterns;
  Rng rng(0xb16);
  while (log.failures.size() < n) {
    const std::uint32_t p =
        static_cast<std::uint32_t>(rng.next_below(num_patterns));
    const std::uint32_t op =
        static_cast<std::uint32_t>(rng.next_below(num_points));
    log.failures.push_back({p, op});
    log.normalize();  // dedupe as we go; cheap at this size
  }
  return log;
}

// ---------- noise model -----------------------------------------------------

TEST(NoiseModelTest, ZeroRatesAreIdentity) {
  const FailureLog log = big_log(200, 64, 50);
  NoiseStats st;
  const FailureLog out = NoiseModel(NoiseOptions{}).corrupt(log, 50, &st);
  EXPECT_TRUE(same_failures(out, log));
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(st.flipped, 0u);
}

TEST(NoiseModelTest, RatesAreValidated) {
  EXPECT_THROW(NoiseModel(NoiseOptions{.drop_rate = -0.1}), Error);
  EXPECT_THROW(NoiseModel(NoiseOptions{.drop_rate = 1.5}), Error);
  EXPECT_THROW(NoiseModel(NoiseOptions{.flip_rate = 2.0}), Error);
}

TEST(NoiseModelTest, SameSeedSameCorruption) {
  const FailureLog log = big_log(300, 100, 64);
  const NoiseModel a(NoiseOptions{.drop_rate = 0.2, .flip_rate = 0.1,
                                  .seed = 0xabc});
  const NoiseModel b(NoiseOptions{.drop_rate = 0.2, .flip_rate = 0.1,
                                  .seed = 0xabc});
  const NoiseModel c(NoiseOptions{.drop_rate = 0.2, .flip_rate = 0.1,
                                  .seed = 0xdef});
  EXPECT_TRUE(same_failures(a.corrupt(log, 64), b.corrupt(log, 64)));
  EXPECT_TRUE(same_failures(a.corrupt(log, 64), a.corrupt(log, 64)));
  EXPECT_FALSE(same_failures(a.corrupt(log, 64), c.corrupt(log, 64)));
}

TEST(NoiseModelTest, DropAndFlipAreCalibrated) {
  const std::size_t n = 2000;
  const FailureLog log = big_log(n, 400, 80);
  NoiseStats st;
  const NoiseModel nm(NoiseOptions{.drop_rate = 0.3, .flip_rate = 0.1});
  const FailureLog out = nm.corrupt(log, 80, &st);
  // Flips are budgeted exactly; drops are per-record Bernoulli(0.3), so a
  // 2000-record log stays within +-50% of the mean with huge margin.
  EXPECT_EQ(st.flipped, static_cast<std::size_t>(std::llround(0.1 * n)));
  EXPECT_GT(st.dropped, n * 3 / 20);  // > 0.15n
  EXPECT_LT(st.dropped, n * 9 / 20);  // < 0.45n
  EXPECT_EQ(out.failures.size(), n - st.dropped + st.flipped);
  // Corruption never fabricates out-of-range records or duplicates.
  FailureLog renorm = out;
  renorm.normalize();
  EXPECT_TRUE(same_failures(renorm, out));
  for (const Failure& f : out.failures) {
    EXPECT_LT(f.pattern, 400u);
    EXPECT_LT(f.op, 80u);
  }
}

TEST(NoiseModelTest, SignatureCorruption) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0x10c);
  const auto faults = collapse_faults(nl);
  SignatureCapture cap(nl, MisrConfig{});
  const SignatureLog log = cap.inject(pats, faults[7]);
  ASSERT_GT(log.num_failing_windows(), 0u);

  // drop_rate 1 makes every failing window read back as passing.
  NoiseStats st;
  const SignatureLog clean =
      NoiseModel(NoiseOptions{.drop_rate = 1.0}).corrupt(log, &st);
  EXPECT_EQ(st.dropped, log.num_failing_windows());
  EXPECT_EQ(clean.num_failing_windows(), 0u);
  EXPECT_EQ(clean.expected, log.expected);

  // Flips garble windows but respect the MISR width; same seed, same log.
  const NoiseModel nm(NoiseOptions{.flip_rate = 1.0});
  NoiseStats st2;
  const SignatureLog noisy = nm.corrupt(log, &st2);
  EXPECT_EQ(st2.flipped, log.num_windows());
  EXPECT_NE(noisy.observed, log.observed);
  const std::uint64_t width_mask =
      log.misr.width >= 64 ? ~std::uint64_t{0}
                           : ((std::uint64_t{1} << log.misr.width) - 1);
  for (std::size_t w = 0; w < noisy.num_windows(); ++w) {
    EXPECT_EQ(noisy.observed[w] & ~width_mask, 0u);
  }
  EXPECT_EQ(nm.corrupt(log).observed, noisy.observed);
}

// corrupt_text() duplicates record lines of a saved log; the strict
// loaders must refuse the duplicate with a line-numbered error instead of
// silently double-counting.
TEST(NoiseModelTest, CorruptTextIsRejectedByTheStrictLoader) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0x10c);
  const auto faults = collapse_faults(nl);
  ResponseCapture cap(nl);
  const FailureLog log = cap.inject(pats, faults[7]);
  ASSERT_GT(log.failures.size(), 1u);
  std::stringstream ss;
  save_failure_log(ss, log);
  const std::string dup =
      NoiseModel(NoiseOptions{.flip_rate = 1.0}).corrupt_text(ss.str());
  ASSERT_NE(dup, ss.str());
  std::stringstream back(dup);
  try {
    load_failure_log(back);
    FAIL() << "duplicated text log accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
        << e.what();
  }
}

// ---------- exact multi-fault injection -------------------------------------

TEST(MultiFaultInjectTest, SingleElementSpanMatchesSingleInject) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0x10c);
  const auto faults = collapse_faults(nl);
  ResponseCapture cap(nl);
  for (std::size_t fi : {7u, 100u, 301u, 500u}) {
    ASSERT_LT(fi, faults.size());
    const Fault f = faults[fi];
    const FailureLog single = cap.inject(pats, f);
    const FailureLog span = cap.inject(pats, std::span<const Fault>(&f, 1));
    EXPECT_TRUE(same_failures(single, span)) << f.to_string(nl);
  }
}

TEST(MultiFaultInjectTest, DuplicatesCollapseAndContradictionsThrow) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0x10c);
  const auto faults = collapse_faults(nl);
  ResponseCapture cap(nl);
  const Fault f = faults[100];
  const std::vector<Fault> dup = {f, f};
  EXPECT_TRUE(same_failures(cap.inject(pats, std::span<const Fault>(dup)),
                            cap.inject(pats, f)));
  const Fault opposite{f.gate, f.pin, !f.stuck_at};
  const std::vector<Fault> contradiction = {f, opposite};
  EXPECT_THROW(cap.inject(pats, std::span<const Fault>(contradiction)), Error);
}

// A downstream stuck output hides an upstream fault completely: the pair
// log must equal the downstream fault's log, NOT the XOR superposition of
// the two single-fault logs (which would predict failures on every
// pattern here).
TEST(MultiFaultInjectTest, DownstreamFaultMasksUpstream) {
  NetlistBuilder b("mask1");
  b.add_input("a");
  b.add_gate(GateType::Not, "g", {"a"});
  b.add_output("g");
  const Netlist nl = b.link();
  const GateId g = nl.find("g");

  std::vector<TestPattern> pats(2);
  pats[0].pi = {Logic::Zero};
  pats[1].pi = {Logic::One};

  const Fault upstream{g, 0, false};    // g.in0/sa0: fails when a = 1
  const Fault downstream{g, -1, false}; // g/sa0:     fails when a = 0
  ResponseCapture cap(nl);
  const FailureLog up = cap.inject(pats, upstream);
  const FailureLog down = cap.inject(pats, downstream);
  ASSERT_EQ(up.failures.size(), 1u);
  ASSERT_EQ(down.failures.size(), 1u);
  ASSERT_NE(up.failures[0].pattern, down.failures[0].pattern);

  const std::vector<Fault> pair = {upstream, downstream};
  const FailureLog both = cap.inject(pats, std::span<const Fault>(pair));
  EXPECT_TRUE(same_failures(both, down))
      << "expected the downstream stuck-at to mask the upstream fault";
}

// A pair log over a pattern set spanning three sweep blocks (the last one
// ragged) must equal the concatenation of one-pattern pair logs, each
// renumbered to its pattern index: block offsets and lane masks of the
// multi-fault sweep cannot shift or drop a failure.
TEST(MultiFaultInjectTest, PairLogsMatchPerPatternInjection) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const auto pats = random_patterns(nl, 2 * kSweepLanes + 88, 0x10c);
  const auto faults = collapse_faults(nl);
  ResponseCapture cap(nl);
  Rng rng(0x9a12);
  int checked = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<Fault> pair = {faults[rng.next_below(faults.size())],
                                     faults[rng.next_below(faults.size())]};
    if (pair[0].gate == pair[1].gate) continue;  // avoid contradictions
    FailureLog expect;
    for (std::size_t p = 0; p < pats.size(); ++p) {
      const FailureLog one =
          cap.inject(std::span(pats).subspan(p, 1), std::span<const Fault>(pair));
      for (const Failure& f : one.failures) {
        expect.failures.push_back({static_cast<std::uint32_t>(p), f.op});
      }
    }
    const FailureLog log = cap.inject(pats, std::span<const Fault>(pair));
    EXPECT_EQ(log.failures, expect.failures)
        << pair[0].to_string(nl) << " + " << pair[1].to_string(nl);
    if (!log.failures.empty() && log.failures.back().pattern >= kSweepLanes) {
      ++checked;
    }
  }
  EXPECT_GT(checked, 0) << "no pair log reaches past the first block";
}

TEST(MultiFaultInjectTest, CompactedPairUsesMisrLinearity) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0x10c);
  const auto faults = collapse_faults(nl);
  const std::vector<Fault> pair = {faults[100], faults[301]};

  // observed ^ expected of the compacted pair log must equal the MISR
  // signature of the pair's response diff -- computed here independently
  // through the full-response injector and the compactor.
  SignatureCapture scap(nl, MisrConfig{});
  const SignatureLog slog =
      scap.inject(pats, std::span<const Fault>(pair));
  ResponseCapture cap(nl);
  const FailureLog flog = cap.inject(pats, std::span<const Fault>(pair));
  MisrCompactor compactor(slog.misr);
  XMaskPlan mask(nl, cap.points(), pats, slog.misr.window);
  const std::vector<std::uint64_t> diff_sigs =
      compactor.compact(flog.to_matrix(cap.points().size()), &mask);
  ASSERT_EQ(diff_sigs.size(), slog.num_windows());
  for (std::size_t w = 0; w < slog.num_windows(); ++w) {
    EXPECT_EQ(slog.observed[w] ^ slog.expected[w], diff_sigs[w]) << w;
  }
}

// ---------- session-level typed errors (acceptance criterion d) -------------

TEST(SessionEvidenceTest, InMemoryOutOfRangeEvidenceIsTyped) {
  ScanSession session(map_to_nand_nor_inv(make_iscas89_like("s344")));
  session.bind_patterns(
      random_patterns(session.netlist(), 32, 0x5e55));

  FailureLog bad;
  bad.num_patterns = 32;
  bad.failures = {{40, 0}};  // pattern out of range
  try {
    session.diagnose(bad);
    FAIL() << "out-of-range pattern accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("outside the 32-pattern log"),
              std::string::npos)
        << e.what();
  }

  FailureLog bad2;
  bad2.num_patterns = 32;
  bad2.failures = {{3, 0xffff}};  // point out of range
  try {
    session.diagnose(bad2);
    FAIL() << "out-of-range point accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("observation space"),
              std::string::npos)
        << e.what();
  }

  FailureLog bad3;
  bad3.num_patterns = 7;  // wrong pattern-set size
  bad3.failures = {{3, 0}};
  EXPECT_THROW(session.diagnose(bad3), Error);
}

// ---------- multiplet cover + union fallback --------------------------------

// Clean single-fault logs must skip both recovery stages entirely: the
// top candidate explains everything, so multiplets stay empty and the
// intersection pruning stands. (This is the zero-overhead guarantee for
// the noise-free paths.)
TEST(MultipletTest, CleanSingleFaultLogSkipsRecovery) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0x10c);
  const auto faults = collapse_faults(nl);
  ResponseCapture cap(nl);
  const FailureLog log = cap.inject(pats, faults[100]);
  ASSERT_FALSE(log.failures.empty());
  const DiagnosisResult res = diagnose_once(nl, pats, log);
  EXPECT_TRUE(res.multiplets.empty());
  EXPECT_FALSE(res.union_fallback);
  EXPECT_EQ(res.rank_of(faults[100]), 1u);
}

TEST(MultipletTest, SuspectSetsAreWellFormed) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const auto pats = random_patterns(nl, 96, 0x10c);
  const auto faults = collapse_faults(nl);
  ResponseCapture cap(nl);
  DiagnosisOptions opts;
  ScanSession session(Netlist(nl), diag_flow_options(opts));
  session.bind_patterns(pats);
  Rng rng(0x5e75);
  std::size_t with_sets = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const std::vector<Fault> pair = {faults[rng.next_below(faults.size())],
                                     faults[rng.next_below(faults.size())]};
    if (pair[0].gate == pair[1].gate) continue;
    const FailureLog log = cap.inject(pats, std::span<const Fault>(pair));
    if (log.failures.empty()) continue;
    const DiagnosisResult res = session.diagnose(log);
    if (res.multiplets.empty()) continue;
    ++with_sets;
    std::size_t prev_covered = res.num_failing_patterns + 1;
    for (const SuspectSet& set : res.multiplets) {
      EXPECT_FALSE(set.members.empty());
      EXPECT_LE(set.members.size(), opts.max_multiplet_size);
      EXPECT_EQ(set.covered + set.uncovered, res.num_failing_patterns);
      EXPECT_LE(set.covered, prev_covered);  // sorted best-cover first
      prev_covered = set.covered;
    }
    EXPECT_LE(res.multiplets.size(), opts.max_multiplets);
  }
  EXPECT_GT(with_sets, 0u) << "no trial exercised the multiplet cover";
}

// ---------- acceptance across every benchgen profile ------------------------

struct PairTrialOutcome {
  int trials = 0;
  int recovered = 0;
  int union_fallbacks = 0;
};

/// True iff `member` is equivalent to injected fault `f` under `pats`:
/// identical single-fault failure logs (indistinguishable defects).
bool equivalent_under(ResponseCapture& cap, std::span<const TestPattern> pats,
                      const Fault& member, const Fault& f) {
  if (member == f) return true;
  return same_failures(cap.inject(pats, member), cap.inject(pats, f));
}

bool set_recovers_pair(ResponseCapture& cap, std::span<const TestPattern> pats,
                       const SuspectSet& set, const Fault& f1,
                       const Fault& f2, const FailureLog& pair_log) {
  bool got1 = false, got2 = false;
  for (const CandidateScore& sc : set.members) {
    got1 = got1 || equivalent_under(cap, pats, sc.fault, f1);
    got2 = got2 || equivalent_under(cap, pats, sc.fault, f2);
  }
  if (got1 && got2) return true;
  // Fallback: the set as a whole reproduces the tester log exactly (an
  // equally valid explanation even if it names different suspects).
  std::vector<Fault> members;
  for (const CandidateScore& sc : set.members) members.push_back(sc.fault);
  try {
    return same_failures(cap.inject(pats, std::span<const Fault>(members)),
                         pair_log);
  } catch (const Error&) {
    return false;  // contradictory same-site members cannot be injected
  }
}

TEST(NoiseAcceptance, PairsRecoveredInTopSuspectSet) {
  int total_trials = 0;
  int total_recovered = 0;
  for (const SynthProfile& profile : iscas89_profiles()) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(profile.name));
    const auto faults = collapse_faults(nl);
    const auto pats = random_patterns(nl, 96, 0xacce97 + profile.seed);

    FaultSimulator fsim(nl);
    const FaultSimResult det = fsim.run(pats, faults);
    std::vector<std::size_t> detected;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (det.detected[fi]) detected.push_back(fi);
    }
    ASSERT_GE(detected.size(), 100u) << profile.name;

    ResponseCapture cap(nl);
    ScanSession session(Netlist(nl), diag_flow_options({.num_threads = 4}));
    session.bind_patterns(pats);
    Rng rng(0xfa17 + profile.seed);
    PairTrialOutcome out;
    while (out.trials < 9) {
      const Fault f1 = faults[detected[rng.next_below(detected.size())]];
      const Fault f2 = faults[detected[rng.next_below(detected.size())]];
      if (f1.gate == f2.gate) continue;  // skip same-site draws
      const std::vector<Fault> pair = {f1, f2};
      const FailureLog pair_log =
          cap.inject(pats, std::span<const Fault>(pair));
      if (pair_log.failures.empty()) continue;
      const DiagnosisResult res = session.diagnose(pair_log);
      out.trials++;
      if (res.union_fallback) out.union_fallbacks++;
      bool ok = false;
      if (!res.multiplets.empty()) {
        ok = set_recovers_pair(cap, pats, res.multiplets.front(), f1, f2,
                               pair_log);
      }
      if (!ok && !res.ranked.empty() && !res.ranked.front().dropped) {
        // One fault masked the other (or their union is a single-fault
        // log): every rank-1 candidate is an exact explanation.
        for (const CandidateScore& sc : res.ranked) {
          if (sc.tfsf != res.ranked.front().tfsf ||
              sc.hamming() != res.ranked.front().hamming()) {
            break;
          }
          if (same_failures(cap.inject(pats, sc.fault), pair_log)) {
            ok = true;
            break;
          }
        }
      }
      if (ok) out.recovered++;
    }
    total_trials += out.trials;
    total_recovered += out.recovered;
    RecordProperty(profile.name.c_str(), out.recovered);
  }
  EXPECT_GE(total_trials, 100);
  EXPECT_GE(total_recovered * 100, total_trials * 90)
      << total_recovered << "/" << total_trials << " pairs recovered";
}

TEST(NoiseAcceptance, NoisySinglesRankTopThree) {
  int total_trials = 0;
  int total_top3 = 0;
  for (const SynthProfile& profile : iscas89_profiles()) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(profile.name));
    const auto faults = collapse_faults(nl);
    const auto pats = random_patterns(nl, 96, 0xacce97 + profile.seed);

    FaultSimulator fsim(nl);
    const FaultSimResult det = fsim.run(pats, faults);
    std::vector<std::size_t> detected;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (det.detected[fi]) detected.push_back(fi);
    }
    ASSERT_GE(detected.size(), 100u) << profile.name;

    ResponseCapture cap(nl);
    const auto ctx = std::make_shared<const DesignContext>(Netlist(nl));
    Rng rng(0x9015e + profile.seed);
    int trials = 0, top3 = 0;
    while (trials < 9) {
      const Fault f = faults[detected[rng.next_below(detected.size())]];
      const FailureLog clean = cap.inject(pats, f);
      if (clean.failures.empty()) continue;
      const NoiseModel nm(NoiseOptions{
          .drop_rate = 0.05, .flip_rate = 0.05,
          .seed = 0xc0447 + static_cast<std::uint64_t>(trials)});
      NoiseStats st;
      const FailureLog noisy = nm.corrupt(clean, cap.points().size(), &st);
      if (noisy.failures.empty()) continue;
      // Tolerance = the tester's own noise floor: the realized corruption
      // plus slack, the knob a production flow would set from retest data.
      DiagnosisOptions opts;
      opts.num_threads = 4;
      opts.noise_tolerance = st.dropped + st.flipped + 2;
      const DiagnosisResult res = diagnose_once(ctx, pats, noisy, opts);
      trials++;
      const std::size_t rank = res.rank_of(f);
      if (rank >= 1 && rank <= 3) top3++;
    }
    total_trials += trials;
    total_top3 += top3;
    RecordProperty(profile.name.c_str(), top3);
  }
  EXPECT_GE(total_trials, 100);
  EXPECT_GE(total_top3 * 100, total_trials * 90)
      << total_top3 << "/" << total_trials << " noisy singles in top-3";
}

TEST(NoiseAcceptance, NoisyResultsBitIdenticalAcrossConfigs) {
  for (const SynthProfile& profile : iscas89_profiles()) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(profile.name));
    const auto faults = collapse_faults(nl);
    const auto pats = random_patterns(nl, 96, 0xacce97 + profile.seed);
    ResponseCapture cap(nl);
    const auto ctx = std::make_shared<const DesignContext>(Netlist(nl));
    Rng rng(0xb17 + profile.seed);

    // One noisy single-fault log and one clean pair log per profile.
    std::vector<FailureLog> logs;
    const NoiseModel nm(NoiseOptions{.drop_rate = 0.05, .flip_rate = 0.05});
    while (logs.size() < 1) {
      const FailureLog clean =
          cap.inject(pats, faults[rng.next_below(faults.size())]);
      if (clean.failures.empty()) continue;
      FailureLog noisy = nm.corrupt(clean, cap.points().size());
      if (!noisy.failures.empty()) logs.push_back(std::move(noisy));
    }
    while (logs.size() < 2) {
      const std::vector<Fault> pair = {faults[rng.next_below(faults.size())],
                                       faults[rng.next_below(faults.size())]};
      if (pair[0].gate == pair[1].gate) continue;
      FailureLog log = cap.inject(pats, std::span<const Fault>(pair));
      if (!log.failures.empty()) logs.push_back(std::move(log));
    }

    for (const FailureLog& log : logs) {
      DiagnosisResult ref;
      bool have_ref = false;
      for (int threads : {1, 4}) {
        DiagnosisOptions opts;
        opts.num_threads = threads;
        opts.noise_tolerance = 4;
        const DiagnosisResult res = diagnose_once(ctx, pats, log, opts);
        if (!have_ref) {
          ref = res;
          have_ref = true;
          continue;
        }
        const std::string cfg =
            strprintf("%s T=%d", profile.name.c_str(), threads);
        ASSERT_EQ(res.union_fallback, ref.union_fallback) << cfg;
        ASSERT_EQ(res.ranked.size(), ref.ranked.size()) << cfg;
        for (std::size_t i = 0; i < ref.ranked.size(); ++i) {
          ASSERT_EQ(res.ranked[i].fault, ref.ranked[i].fault) << cfg;
          ASSERT_EQ(res.ranked[i].tfsf, ref.ranked[i].tfsf) << cfg;
          ASSERT_EQ(res.ranked[i].tfsp, ref.ranked[i].tfsp) << cfg;
          ASSERT_EQ(res.ranked[i].tpsf, ref.ranked[i].tpsf) << cfg;
          ASSERT_EQ(res.ranked[i].dropped, ref.ranked[i].dropped) << cfg;
        }
        ASSERT_EQ(res.multiplets.size(), ref.multiplets.size()) << cfg;
        for (std::size_t s = 0; s < ref.multiplets.size(); ++s) {
          ASSERT_EQ(res.multiplets[s].covered, ref.multiplets[s].covered)
              << cfg;
          ASSERT_EQ(res.multiplets[s].members.size(),
                    ref.multiplets[s].members.size())
              << cfg;
          for (std::size_t m = 0; m < ref.multiplets[s].members.size();
               ++m) {
            ASSERT_EQ(res.multiplets[s].members[m].fault,
                      ref.multiplets[s].members[m].fault)
                << cfg << " set " << s;
          }
        }
      }
    }
  }
}

// Batch diagnosis fans noisy-log recovery across the worker pool; each
// result must still be bit-identical to a sequential diagnose() on the
// same log. (This test is in the CI ThreadSanitizer job's net.)
TEST(NoiseAcceptance, BatchMatchesSequentialOnNoisyAndPairLogs) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(nl, 96, 0x10c);
  ResponseCapture cap(nl);
  Rng rng(0xba7c);
  const NoiseModel nm(NoiseOptions{.drop_rate = 0.08, .flip_rate = 0.08});

  std::vector<FailureLog> logs;
  while (logs.size() < 6) {
    if (logs.size() % 2 == 0) {
      FailureLog noisy = nm.corrupt(
          cap.inject(pats, faults[rng.next_below(faults.size())]),
          cap.points().size());
      if (!noisy.failures.empty()) logs.push_back(std::move(noisy));
    } else {
      const std::vector<Fault> pair = {faults[rng.next_below(faults.size())],
                                       faults[rng.next_below(faults.size())]};
      if (pair[0].gate == pair[1].gate) continue;
      FailureLog log = cap.inject(pats, std::span<const Fault>(pair));
      if (!log.failures.empty()) logs.push_back(std::move(log));
    }
  }

  DiagnosisOptions opts;
  opts.num_threads = 4;
  opts.noise_tolerance = 3;
  ScanSession session(Netlist(nl), diag_flow_options(opts));
  session.bind_patterns(pats);
  const std::vector<Evidence> evidence(logs.begin(), logs.end());
  const std::vector<DiagnosisResult> batch = session.diagnose_batch(evidence);
  ASSERT_EQ(batch.size(), logs.size());
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const DiagnosisResult seq = session.diagnose(logs[i]);
    ASSERT_EQ(batch[i].union_fallback, seq.union_fallback) << i;
    ASSERT_EQ(batch[i].ranked.size(), seq.ranked.size()) << i;
    for (std::size_t k = 0; k < seq.ranked.size(); ++k) {
      ASSERT_EQ(batch[i].ranked[k].fault, seq.ranked[k].fault) << i;
      ASSERT_EQ(batch[i].ranked[k].tpsf, seq.ranked[k].tpsf) << i;
    }
    ASSERT_EQ(batch[i].multiplets.size(), seq.multiplets.size()) << i;
    for (std::size_t s = 0; s < seq.multiplets.size(); ++s) {
      ASSERT_EQ(batch[i].multiplets[s].members.size(),
                seq.multiplets[s].members.size())
          << i;
      for (std::size_t m = 0; m < seq.multiplets[s].members.size(); ++m) {
        ASSERT_EQ(batch[i].multiplets[s].members[m].fault,
                  seq.multiplets[s].members[m].fault)
            << i << " set " << s;
      }
    }
  }
}

}  // namespace
}  // namespace scanpower
