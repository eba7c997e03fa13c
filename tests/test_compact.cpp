// Response-compaction subsystem: MISR signatures, X-masking, signature
// logs and diagnosis over compacted responses.
//
// Compaction is a linear system with crisp algebraic invariants, so the
// core is guarded by property tests over random responses rather than
// hand-picked examples: linearity (sig(A ^ B) == sig(A) ^ sig(B)),
// packed-vs-scalar equality for every block width, and the aliasing
// probability of the signature. The acceptance criterion mirrors the
// full-response engine's: for every benchgen profile, injecting each of
// 100 sampled detected collapsed faults and diagnosing from the
// MISR-compacted signature log (default width/window) must rank the
// injected fault #1 (ties share a rank) in >= 95% of injections, with
// rankings bit-identical across (block_words, num_threads) in {1,4}x{1,4}.

#include <gtest/gtest.h>

#include <sstream>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "benchgen/benchgen.hpp"
#include "compact/misr.hpp"
#include "compact/signature_log.hpp"
#include "compact/xmask.hpp"
#include "diag/response.hpp"
#include "sim/simulator.hpp"
#include "support/diag_session.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"

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

/// Random response matrix with the given shape (invalid high lanes of the
/// final word kept zero, as every real producer guarantees).
ResponseMatrix random_responses(std::size_t num_points,
                                std::size_t num_patterns, Rng& rng) {
  ResponseMatrix m;
  m.num_points = num_points;
  m.num_patterns = num_patterns;
  m.words.resize(num_points * m.words_per_point());
  const std::size_t wpp = m.words_per_point();
  for (std::size_t op = 0; op < num_points; ++op) {
    PatternWord* row = m.row(op);
    for (std::size_t w = 0; w < wpp; ++w) row[w] = rng.next_u64();
    if (num_patterns % 64 != 0 && wpp > 0) {
      row[wpp - 1] &= (PatternWord{1} << (num_patterns % 64)) - 1;
    }
  }
  return m;
}

// ---------- MISR core -------------------------------------------------------

TEST(MisrTest, DefaultPolynomialsAreValid) {
  for (int width : {4, 5, 8, 13, 16, 20, 32, 33, 48, 63, 64}) {
    const std::uint64_t poly = default_misr_poly(width);
    ASSERT_NE(poly, 0u) << width;
    EXPECT_TRUE((poly >> (width - 1)) & 1) << width;  // invertible register
    if (width < 64) EXPECT_EQ(poly >> width, 0u) << width;
    (void)Misr(MisrConfig{.width = width});  // must validate
  }
  EXPECT_THROW(Misr(MisrConfig{.width = 3}), Error);
  EXPECT_THROW(Misr(MisrConfig{.width = 65}), Error);
  EXPECT_THROW(Misr(MisrConfig{.width = 16, .poly = 0x10000}), Error);
  EXPECT_THROW(Misr(MisrConfig{.width = 16, .poly = 0x0001}), Error);
  EXPECT_THROW(Misr(MisrConfig{.window = 0}), Error);
}

// The register transition with the top polynomial bit set is invertible,
// so idle() from distinct states stays distinct.
TEST(MisrTest, StepIsInvertible) {
  const Misr misr(MisrConfig{.width = 8, .window = 4});
  std::vector<std::uint8_t> seen(256, 0);
  for (std::uint64_t s = 0; s < 256; ++s) {
    const std::uint64_t n = misr.step(s);
    ASSERT_LT(n, 256u);
    ASSERT_FALSE(seen[n]) << "step() collision at state " << s;
    seen[n] = 1;
  }
}

// Property: MISR compaction is linear over GF(2). For random response
// pairs A, B with every benchgen profile's response shape,
// sig(A ^ B) == sig(A) ^ sig(B) per window.
TEST(MisrTest, LinearityOverEveryProfileShape) {
  Rng rng(0x11ea5);
  for (const SynthProfile& profile : iscas89_profiles()) {
    const std::size_t num_points = static_cast<std::size_t>(profile.num_po) +
                                   static_cast<std::size_t>(profile.num_ff);
    for (const MisrConfig cfg :
         {MisrConfig{}, MisrConfig{.width = 16, .window = 7}}) {
      const MisrCompactor compactor(cfg, 4);
      const std::size_t num_patterns = 96;
      const ResponseMatrix a = random_responses(num_points, num_patterns, rng);
      const ResponseMatrix b = random_responses(num_points, num_patterns, rng);
      ResponseMatrix axb = a;
      for (std::size_t i = 0; i < axb.words.size(); ++i) {
        axb.words[i] ^= b.words[i];
      }
      const auto sa = compactor.compact(a);
      const auto sb = compactor.compact(b);
      const auto sab = compactor.compact(axb);
      ASSERT_EQ(sa.size(), cfg.num_windows(num_patterns));
      for (std::size_t w = 0; w < sa.size(); ++w) {
        EXPECT_EQ(sab[w], sa[w] ^ sb[w])
            << profile.name << " window " << w << " width " << cfg.width;
      }
    }
  }
}

// Property: the packed bit-sliced engine equals the scalar reference
// register bit-for-bit, for every block width, across awkward shapes
// (window straddling word blocks, partial final windows, num_points not
// a multiple of the register width, width 64).
TEST(MisrTest, PackedMatchesScalarEveryWidth) {
  Rng rng(0xc0ffee);
  const std::size_t shapes[][2] = {
      {26, 96}, {26, 64}, {3, 130}, {80, 17}, {250, 256}, {1, 70}, {40, 1}};
  for (const auto& shape : shapes) {
    const std::size_t num_points = shape[0];
    const std::size_t num_patterns = shape[1];
    const ResponseMatrix m = random_responses(num_points, num_patterns, rng);
    for (const MisrConfig cfg :
         {MisrConfig{}, MisrConfig{.width = 8, .window = 5},
          MisrConfig{.width = 20, .window = 3},
          MisrConfig{.width = 64, .window = 100}}) {
      const Misr misr(cfg);
      const auto ref = misr.compact_scalar(m);
      for (int words : kBlockWords) {
        const MisrCompactor compactor(cfg, words);
        const auto packed = compactor.compact(m);
        ASSERT_EQ(packed, ref)
            << num_points << "x" << num_patterns << " width " << cfg.width
            << " window " << cfg.window << " W=" << words;
      }
    }
  }
}

// Single-bit corruptions can never alias (the register transition is
// invertible, so a lone error bit always leaves a nonzero syndrome) --
// trivially below the 2^-width * 4 bound. Whole-window random
// corruptions measure the real aliasing probability, which must stay
// below the same bound.
TEST(MisrTest, AliasingStaysBelowBound) {
  const int width = 8;  // small register so aliasing is measurable
  const MisrConfig cfg{.width = width, .window = 8};
  const MisrCompactor compactor(cfg, 4);
  const std::size_t num_points = 26;   // s344-like response width
  const std::size_t num_patterns = 8;  // one window
  Rng rng(0xa11a5);

  // By linearity sig(R ^ E) == sig(R) ^ sig(E): an error pattern E
  // aliases iff sig(E) == 0, independent of the response it corrupts.
  const auto alias = [&](const ResponseMatrix& err) {
    return compactor.compact(err)[0] == 0;
  };

  ResponseMatrix err;
  err.num_points = num_points;
  err.num_patterns = num_patterns;
  err.words.assign(num_points * err.words_per_point(), 0);

  // Every single-bit corruption: zero aliases.
  for (std::size_t op = 0; op < num_points; ++op) {
    for (std::size_t p = 0; p < num_patterns; ++p) {
      err.set_bit(op, p);
      EXPECT_FALSE(alias(err)) << "single-bit alias at (" << op << "," << p
                               << ")";
      err.row(op)[p / 64] = 0;
    }
  }

  // Random multi-bit corruptions: measured rate below 4 * 2^-width.
  const int trials = 20000;
  int aliased = 0;
  for (int t = 0; t < trials; ++t) {
    bool nonzero = false;
    for (std::size_t op = 0; op < num_points; ++op) {
      const PatternWord w = rng.next_u64() & ((PatternWord{1} << num_patterns) - 1);
      err.row(op)[0] = w;
      nonzero |= w != 0;
    }
    if (!nonzero) continue;
    if (alias(err)) ++aliased;
  }
  const double bound = 4.0 * static_cast<double>(trials) / 256.0;  // 2^-8
  EXPECT_LT(static_cast<double>(aliased), bound);
}

// ---------- X-masking -------------------------------------------------------

// The mask plan must flag exactly the (point, window) pairs whose
// good-machine value goes X for some pattern of the window -- checked
// against the scalar 3-valued simulator -- and masked points must leave
// the signatures entirely.
TEST(XMaskPlanTest, MatchesScalarTernarySimulation) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  auto pats = random_patterns(nl, 96, 0x3a5);
  // Poke X into a deterministic spread of pattern bits.
  Rng rng(0x77);
  for (TestPattern& p : pats) {
    for (Logic& v : p.pi) {
      if (rng.next_below(8) == 0) v = Logic::X;
    }
    for (Logic& v : p.ppi) {
      if (rng.next_below(16) == 0) v = Logic::X;
    }
  }
  const ObservationPoints points(nl);
  const int window = 8;
  const XMaskPlan plan(nl, points, pats, window, 4);
  ASSERT_TRUE(plan.any_masked());
  EXPECT_EQ(plan.num_windows(), pats.size() / window);

  Simulator sim(nl);
  std::size_t masked_total = 0;
  std::vector<std::uint8_t> x_in_window(points.size() * plan.num_windows(), 0);
  for (std::size_t p = 0; p < pats.size(); ++p) {
    for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
      sim.set_input(nl.inputs()[k], pats[p].pi[k]);
    }
    for (std::size_t c = 0; c < nl.dffs().size(); ++c) {
      sim.set_state(nl.dffs()[c], pats[p].ppi[c]);
    }
    sim.eval();
    for (std::size_t op = 0; op < points.size(); ++op) {
      if (sim.value(points.observed_gate(op)) == Logic::X) {
        x_in_window[op * plan.num_windows() + p / window] = 1;
      }
    }
  }
  for (std::size_t op = 0; op < points.size(); ++op) {
    for (std::size_t w = 0; w < plan.num_windows(); ++w) {
      EXPECT_EQ(plan.masked(op, w),
                x_in_window[op * plan.num_windows() + w] != 0)
          << "op " << op << " window " << w;
      masked_total += plan.masked(op, w);
    }
  }
  EXPECT_EQ(plan.num_masked(), masked_total);

  // Masked points contribute nothing: flipping every response bit of a
  // masked point inside its masked window leaves the signatures unchanged.
  Rng rrng(0x9e);
  ResponseMatrix m = random_responses(points.size(), pats.size(), rrng);
  const MisrCompactor compactor(MisrConfig{.window = window}, 4);
  const auto base = compactor.compact(m, &plan);
  EXPECT_EQ(base, Misr(MisrConfig{.window = window}).compact_scalar(m, &plan));
  bool flipped_any = false;
  for (std::size_t op = 0; op < points.size() && !flipped_any; ++op) {
    for (std::size_t w = 0; w < plan.num_windows(); ++w) {
      if (!plan.masked(op, w)) continue;
      for (std::size_t p = w * window; p < (w + 1) * window; ++p) {
        m.row(op)[p / 64] ^= PatternWord{1} << (p % 64);
      }
      flipped_any = true;
      break;
    }
  }
  ASSERT_TRUE(flipped_any);
  EXPECT_EQ(compactor.compact(m, &plan), base);
}

TEST(XMaskPlanTest, FullySpecifiedPatternsYieldEmptyPlan) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto pats = random_patterns(nl, 32, 1);
  const ObservationPoints points(nl);
  const XMaskPlan plan(nl, points, pats, 8, 1);
  EXPECT_FALSE(plan.any_masked());
  EXPECT_EQ(plan.num_masked(), 0u);
  EXPECT_EQ(plan.keep_row(0), nullptr);
  EXPECT_TRUE(zero_filled_patterns(pats).empty());
}

// ---------- short final windows ---------------------------------------------

// patterns % window != 0 leaves a short final window, and all four
// engines must agree on its semantics: XMaskPlan ceil-counts windows and
// clamps the final range, the scalar Misr and the packed MisrCompactor
// fold only the real patterns of the short window (at every block
// width), and SignatureCapture publishes expected/observed vectors of
// the same ceil length that the diagnoser accepts. A disagreement
// anywhere would silently shift every verdict behind the boundary.
TEST(ShortWindowTest, EnginesAgreeOnPartialFinalWindow) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const ObservationPoints points(nl);
  const auto faults = collapse_faults(nl);
  Rng xr(0x51);
  // (patterns, window) shapes: remainder 1, mid-window remainders,
  // window > patterns (a single short window), and a final window
  // straddling the 64-lane word boundary.
  const std::size_t shapes[][2] = {{91, 12}, {65, 64}, {13, 32},
                                   {96, 7},  {33, 2},  {127, 64}};
  for (const auto& shape : shapes) {
    const std::size_t n = shape[0];
    const int window = static_cast<int>(shape[1]);
    auto pats = random_patterns(nl, static_cast<int>(n), 0xd0 + n);
    // Poke X bits so X-bounding is active inside the short window too.
    for (TestPattern& p : pats) {
      for (Logic& v : p.pi) {
        if (xr.next_below(6) == 0) v = Logic::X;
      }
    }
    const MisrConfig cfg{.width = 16, .window = window};
    const std::size_t nwin = cfg.num_windows(n);
    ASSERT_EQ(nwin, (n + shape[1] - 1) / shape[1]);

    // Identical plans at every block width, ceil window count.
    const XMaskPlan plan1(nl, points, pats, window, 1);
    const XMaskPlan plan4(nl, points, pats, window, 4);
    ASSERT_EQ(plan1.num_windows(), nwin) << n << "/" << window;
    ASSERT_EQ(plan4.num_windows(), nwin);
    ASSERT_EQ(plan1.num_masked(), plan4.num_masked());
    for (std::size_t op = 0; op < points.size(); ++op) {
      for (std::size_t w = 0; w < nwin; ++w) {
        ASSERT_EQ(plan1.masked(op, w), plan4.masked(op, w))
            << n << "/" << window << " op " << op << " window " << w;
      }
    }

    // Scalar register == packed engine under the mask, every width.
    const auto filled = zero_filled_patterns(pats);
    ASSERT_FALSE(filled.empty());
    ResponseCapture rcap(nl, 4);
    const ResponseMatrix good = rcap.capture_good(filled);
    const auto ref = Misr(cfg).compact_scalar(good, &plan1);
    ASSERT_EQ(ref.size(), nwin);
    for (int words : {1, 4, 8}) {
      EXPECT_EQ(MisrCompactor(cfg, words).compact(good, &plan4), ref)
          << n << "/" << window << " W=" << words;
    }

    // SignatureCapture publishes the same shapes end to end, and the
    // diagnoser accepts the log and ranks the injected fault #1. Prefer
    // a fault that actually fails some window (masking can swallow a
    // detection entirely; a clean log still ties every undetected fault
    // at rank 1, so the fallback stays assertable).
    SignatureCapture cap(nl, cfg, 4);
    SignatureLog log;
    std::size_t pick = 0;
    for (std::size_t fi = 0; fi < faults.size(); fi += 29) {
      log = cap.inject(pats, faults[fi]);
      pick = fi;
      if (log.num_failing_windows() > 0) break;
    }
    EXPECT_EQ(log.expected, ref) << n << "/" << window;
    ASSERT_EQ(log.observed.size(), nwin);
    EXPECT_EQ(log.num_patterns, n);
    const DiagnosisResult res = diagnose_once(nl, pats, log);
    EXPECT_EQ(res.num_windows, nwin);
    EXPECT_EQ(res.rank_of(faults[pick]), 1u) << n << "/" << window;
  }
}

// ---------- signature logs --------------------------------------------------

TEST(SignatureLogTest, SaveLoadRoundTrip) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0x10c);
  const auto faults = collapse_faults(nl);
  SignatureCapture cap(nl, MisrConfig{}, 4);
  const SignatureLog log = cap.inject(pats, faults[7]);
  ASSERT_GT(log.num_failing_windows(), 0u);

  std::stringstream ss;
  save_signature_log(ss, log);
  const SignatureLog back = load_signature_log(ss);
  EXPECT_EQ(back.circuit, log.circuit);
  EXPECT_EQ(back.num_patterns, log.num_patterns);
  EXPECT_TRUE(back.misr == log.misr);
  EXPECT_EQ(back.expected, log.expected);
  EXPECT_EQ(back.observed, log.observed);
}

TEST(SignatureLogTest, LoadRejectsGarbage) {
  const auto reject = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(load_signature_log(ss), Error) << text;
  };
  reject("patterns 4\n");                                       // no windows
  reject("patterns 64\nmisr 16 a001 32\nwindows 2\n"
         "sig 0 0 0\n");                                        // missing window
  reject("patterns 64\nmisr 16 a001 32\nwindows 2\n"
         "sig 0 0 0\nsig 0 0 0\n");                             // duplicate
  reject("patterns 64\nmisr 16 a001 32\nwindows 2\n"
         "sig 0 0 0\nsig 2 0 0\n");                             // out of range
  reject("patterns 64\nmisr 16 a001 32\nwindows 3\n"
         "sig 0 0 0\nsig 1 0 0\nsig 2 0 0\n");                  // count mismatch
  reject("patterns 64\nmisr 16 10000 32\nwindows 2\n"
         "sig 0 0 0\nsig 1 0 0\n");                             // bad poly
  reject("patterns 64\nmisr 16 a001 32\nwindows 2\n"
         "sug 0 0 0\nsig 1 0 0\n");                             // bad keyword
}

// Hardened ingestion: malformed signature logs are rejected with a typed
// Error naming the offending line and defect, never silently coerced.
TEST(SignatureLogTest, MalformedLogsNameTheOffendingLine) {
  const auto reject = [](const std::string& text, const std::string& expect) {
    std::stringstream ss(text);
    try {
      load_signature_log(ss);
      FAIL() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
          << "error \"" << e.what() << "\" lacks \"" << expect << "\" for:\n"
          << text;
    }
  };
  reject("patterns 64\npatterns 64\n", "line 2");       // duplicate header
  reject("patterns 64\npatterns 64\n", "duplicate");
  reject("misr 16 a001 32\nmisr 16 a001 32\n", "line 2");
  reject("patterns -9\n", "bad pattern count");
  reject("patterns 64\nwindows 2\nsig 0 0 0\n", "line 3");  // sig before misr
  reject("patterns 64\nwindows 2\nsig 0 0 0\n", "before \"misr\"");
  reject("patterns 64\nmisr 16 a001 32\nsig 0 0 0\n", "before \"windows\"");
  reject("patterns 64\nmisr 16 a001 32\nwindows 2\n"
         "sig 0 1ffff 0\nsig 1 0 0\n", "line 4");         // sig wider than MISR
  reject("patterns 64\nmisr 16 a001 32\nwindows 2\n"
         "sig 0 1ffff 0\nsig 1 0 0\n", "exceeds the 16-bit MISR width");
  reject("patterns 64\nmisr 16 a001 32\nwindows 2\n"
         "sig 0 0 0 junk\nsig 1 0 0\n", "line 4");        // trailing garbage
  reject("patterns 64\nmisr 16 a001 32\nwindows 2\n"
         "sig 0 0 0 junk\nsig 1 0 0\n", "trailing");
  reject("patterns 64\nmisr 16 a001 32\nwindows 2\n"
         "sig 1 0 0\n", "window 0 of 2 missing");         // truncation
  reject("patterns 64\nmisr 16 a001 32\nwindows 2\n"
         "sig 0 0 0\nsig 5 0 0\n", "out of range");
  reject("patterns 64\nmisr 16 a001 32\nwindows 2\n"
         "sig 0 0 0\nsig 5 0 0\n", "line 5");
}

// Fuzz: random logs survive save -> load -> save with a byte-identical
// second save and structural equality.
TEST(SignatureLogTest, FuzzRoundTripIsByteIdentical) {
  Rng rng(0xf022);
  for (int t = 0; t < 200; ++t) {
    SignatureLog log;
    log.circuit = t % 5 == 0 ? "" : "ckt" + std::to_string(rng.next_below(100));
    log.misr.width = 4 + static_cast<int>(rng.next_below(61));
    log.misr.poly = 0;  // resolved on save
    log.misr.window = 1 + static_cast<int>(rng.next_below(40));
    const std::size_t windows = rng.next_below(20);
    log.num_patterns =
        windows == 0
            ? 0
            : (windows - 1) * static_cast<std::size_t>(log.misr.window) + 1 +
                  rng.next_below(static_cast<std::uint64_t>(log.misr.window));
    const std::uint64_t mask = log.misr.width == 64
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << log.misr.width) - 1;
    for (std::size_t w = 0; w < windows; ++w) {
      log.expected.push_back(rng.next_u64() & mask);
      log.observed.push_back(rng.next_u64() & mask);
    }

    std::stringstream first;
    save_signature_log(first, log);
    const SignatureLog back = load_signature_log(first);
    EXPECT_EQ(back.circuit, log.circuit);
    EXPECT_EQ(back.num_patterns, log.num_patterns);
    EXPECT_TRUE(back.misr == log.misr);
    EXPECT_EQ(back.expected, log.expected);
    EXPECT_EQ(back.observed, log.observed);
    std::stringstream second;
    save_signature_log(second, back);
    EXPECT_EQ(second.str(), first.str());
  }
}

// ---------- synthetic injection ---------------------------------------------

// The injected signature log must equal compacting the full faulty
// response: observed == sig(good ^ diff) window-wise, and expected
// matches the good machine -- cross-checked through the uncompacted
// ResponseCapture.
TEST(SignatureCaptureTest, InjectMatchesFullResponseCompaction) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0xfa11);
  const auto faults = collapse_faults(nl);
  const MisrConfig cfg{.width = 24, .window = 10};
  SignatureCapture scap(nl, cfg, 4);
  ResponseCapture rcap(nl, 4);
  const MisrCompactor compactor(cfg, 4);
  const ResponseMatrix good = rcap.capture_good(pats);

  for (std::size_t fi = 0; fi < faults.size(); fi += 97) {
    const Fault& f = faults[fi];
    const SignatureLog log = scap.inject(pats, f);
    EXPECT_EQ(log.expected, compactor.compact(good));
    ResponseMatrix faulty = good;
    const FailureLog failures = rcap.inject(pats, f);
    for (const Failure& fail : failures.failures) {
      faulty.row(fail.op)[fail.pattern / 64] ^= PatternWord{1}
                                                << (fail.pattern % 64);
    }
    EXPECT_EQ(log.observed, compactor.compact(faulty)) << f.to_string(nl);
  }
}

// ---------- compacted diagnosis ---------------------------------------------

TEST(SignatureDiagnoseTest, RejectsMismatchedLog) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(nl, 32, 5);
  SignatureCapture cap(nl, MisrConfig{}, 1);
  SignatureLog log = cap.inject(pats, faults[0]);
  ScanSession session(Netlist(nl), diag_flow_options({.block_words = 1}));
  session.bind_patterns(pats);

  SignatureLog wrong_count = log;
  wrong_count.num_patterns = 31;
  EXPECT_THROW(session.diagnose(wrong_count), Error);

  // Expected signatures recorded for a different pattern set must be
  // rejected up front instead of silently wrecking every score.
  SignatureLog wrong_expected = log;
  wrong_expected.expected[0] ^= 1;
  EXPECT_THROW(session.diagnose(wrong_expected), Error);
}

// No failing windows: exact candidates are exactly the faults this
// pattern set cannot detect (nothing else predicts an all-pass log).
TEST(SignatureDiagnoseTest, CleanLogScoresEverythingAsUndetected) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(nl, 48, 3);
  SignatureCapture cap(nl, MisrConfig{.window = 16}, 4);
  cap.bind(pats);
  SignatureLog clean;
  clean.circuit = nl.name();
  clean.num_patterns = pats.size();
  clean.misr = cap.config();
  clean.expected = cap.expected();
  clean.observed = cap.expected();

  const DiagnosisResult res =
      diagnose_once(nl, pats, clean, DiagnosisOptions{.cone_pruning = false});
  ASSERT_EQ(res.ranked.size(), faults.size());
  EXPECT_EQ(res.num_failing_windows, 0u);
  FaultSimulator fsim(nl, FaultSimOptions{.block_words = 1});
  const FaultSimResult det = fsim.run(pats, faults);
  for (const CandidateScore& sc : res.ranked) {
    EXPECT_EQ(sc.exact(), !det.detected[sc.fault_index])
        << sc.fault.to_string(nl);
  }
}

// Pattern sets beyond the good-block cache exercise the streaming
// re-simulation path; rankings must match the cached path bit-for-bit.
TEST(SignatureDiagnoseTest, StreamingGoodMachineMatchesCachedPath) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  // 260 blocks at W=1 (over the 256-block cache cap), 5 blocks at W=8.
  const auto pats = random_patterns(nl, 260 * 64, 0xb10c);
  SignatureCapture cap(nl, MisrConfig{.window = 128}, 4);
  const SignatureLog log = cap.inject(pats, faults[2]);
  ASSERT_GT(log.num_failing_windows(), 0u);

  const auto ctx = std::make_shared<const DesignContext>(Netlist(nl));
  DiagnosisResult ref;
  bool have_ref = false;
  for (int words : {1, 8}) {
    const DiagnosisResult res = diagnose_once(
        ctx, pats, log,
        DiagnosisOptions{.block_words = words, .cone_pruning = false});
    EXPECT_EQ(res.rank_of(faults[2]), 1u);
    if (!have_ref) {
      ref = res;
      have_ref = true;
      continue;
    }
    ASSERT_EQ(res.ranked.size(), ref.ranked.size());
    for (std::size_t i = 0; i < ref.ranked.size(); ++i) {
      ASSERT_EQ(res.ranked[i].fault, ref.ranked[i].fault) << "W=" << words;
      ASSERT_EQ(res.ranked[i].tfsf, ref.ranked[i].tfsf);
      ASSERT_EQ(res.ranked[i].tfsp, ref.ranked[i].tfsp);
      ASSERT_EQ(res.ranked[i].tpsf, ref.ranked[i].tpsf);
    }
  }
}

// X-polluted patterns: diagnosis from a compacted log with masked
// windows still ranks the injected fault #1, and the rebuilt mask plan
// matches the tester's.
TEST(SignatureDiagnoseTest, DiagnosesThroughXMasking) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  auto pats = random_patterns(nl, 96, 0xe4e);
  Rng rng(0x5eed);
  for (TestPattern& p : pats) {
    for (Logic& v : p.pi) {
      if (rng.next_below(10) == 0) v = Logic::X;
    }
  }
  const auto faults = collapse_faults(nl);
  SignatureCapture cap(nl, MisrConfig{.window = 8}, 4);
  cap.bind(pats);
  ASSERT_TRUE(cap.mask().any_masked());

  ScanSession session{Netlist(nl)};
  session.bind_patterns(pats);
  int diagnosed = 0;
  for (std::size_t fi = 0; fi < faults.size() && diagnosed < 12; fi += 41) {
    const SignatureLog log = cap.inject(pats, faults[fi]);
    if (log.num_failing_windows() == 0) continue;
    ++diagnosed;
    const DiagnosisResult res = session.diagnose(log);
    EXPECT_EQ(res.rank_of(faults[fi]), 1u) << faults[fi].to_string(nl);
    EXPECT_EQ(res.num_masked, cap.mask().num_masked());
    ASSERT_FALSE(res.ranked.empty());
    EXPECT_TRUE(res.ranked[0].exact());
  }
  EXPECT_GE(diagnosed, 8);
}

// ---------- acceptance: every profile, deterministic, rank-1 ----------------

// For every benchgen profile: inject >= 100 sampled detected collapsed
// faults, diagnose from the MISR-compacted signature log (default
// width/window), and require the injected fault to rank #1 (ties share a
// rank) in >= 95% of injections. Rankings must be bit-identical across
// (block_words, num_threads) in {1,4} x {1,4}.
TEST(CompactDiagnoseAcceptance, AllProfilesRankInjectedFaultFirst) {
  for (const SynthProfile& profile : iscas89_profiles()) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(profile.name));
    const auto faults = collapse_faults(nl);
    const int num_patterns = 96;
    const auto pats =
        random_patterns(nl, num_patterns, 0xacce97 + profile.seed);

    FaultSimulator fsim(nl, FaultSimOptions{.block_words = 4});
    const FaultSimResult det = fsim.run(pats, faults);
    std::vector<std::size_t> detected;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (det.detected[fi]) detected.push_back(fi);
    }
    ASSERT_GE(detected.size(), 100u) << profile.name;

    const std::size_t stride = detected.size() / 100;
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < detected.size() && sample.size() < 100;
         i += stride) {
      sample.push_back(detected[i]);
    }

    SignatureCapture cap(nl, MisrConfig{}, 4);  // default width/window
    // All hardware threads: rankings are bit-identical across thread
    // counts (verified below), so this only buys wall-clock.
    const auto ctx = std::make_shared<const DesignContext>(Netlist(nl));
    ScanSession session(
        ctx, diag_flow_options({.block_words = 4, .num_threads = 0}));
    session.bind_patterns(pats);
    int trials = 0;
    int rank1 = 0;
    for (std::size_t fi : sample) {
      const SignatureLog log = cap.inject(pats, faults[fi]);
      ASSERT_GT(log.num_failing_windows(), 0u) << profile.name;
      const DiagnosisResult res = session.diagnose(log);
      const std::size_t rank = res.rank_of(faults[fi]);
      ASSERT_GE(rank, 1u) << profile.name << ": injected fault pruned away";
      ++trials;
      if (rank == 1) ++rank1;
    }
    EXPECT_GE(trials, 100);
    EXPECT_GE(rank1 * 100, trials * 95)
        << profile.name << ": " << rank1 << "/" << trials;

    // Bit-identical rankings across engine configurations on a subset.
    for (int trial = 0; trial < 5; ++trial) {
      const std::size_t fi = sample[sample.size() / 5 * trial];
      const SignatureLog log = cap.inject(pats, faults[fi]);
      DiagnosisResult ref;
      bool have_ref = false;
      for (int words : {1, 4}) {
        for (int threads : {1, 4}) {
          const DiagnosisResult res = diagnose_once(
              ctx, pats, log,
              DiagnosisOptions{.block_words = words, .num_threads = threads});
          if (!have_ref) {
            ref = res;
            have_ref = true;
            continue;
          }
          ASSERT_EQ(res.ranked.size(), ref.ranked.size()) << profile.name;
          for (std::size_t i = 0; i < ref.ranked.size(); ++i) {
            ASSERT_EQ(res.ranked[i].fault, ref.ranked[i].fault)
                << profile.name << " W=" << words << " T=" << threads;
            ASSERT_EQ(res.ranked[i].tfsf, ref.ranked[i].tfsf);
            ASSERT_EQ(res.ranked[i].tfsp, ref.ranked[i].tfsp);
            ASSERT_EQ(res.ranked[i].tpsf, ref.ranked[i].tpsf);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace scanpower
