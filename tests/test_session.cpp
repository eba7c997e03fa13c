// ScanSession: the stateful service API.
//
// Three property groups:
//  1. Option validation at construction -- bad MISR configurations,
//     thread counts and empty pattern sets throw actionable errors naming
//     the knob, instead of failing deep inside the engines.
//  2. Session-reuse determinism -- for every benchgen profile, results
//     from one long-lived session (repeated + interleaved full/compacted
//     diagnosis, observability and fill calls) are bit-identical to fresh
//     one-shot sessions and engines, across num_threads in {1, 4}.
//  3. diagnose_batch -- mixed-evidence batches come back in input order,
//     bit-identical to sequential diagnose() calls, including under a
//     concurrent (4-worker) pool; this test is the ThreadSanitizer hook
//     for the batch fan-out.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "benchgen/benchgen.hpp"
#include "compact/compact_diag.hpp"
#include "compact/signature_log.hpp"
#include "core/dont_care_fill.hpp"
#include "core/session.hpp"
#include "diag/diagnose.hpp"
#include "power/observability.hpp"
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

/// Expects that constructing a session with `opts` throws an Error whose
/// message names the session and mentions `needle` (the knob name).
void expect_ctor_error(const Netlist& nl, const FlowOptions& opts,
                       const std::string& needle) {
  try {
    ScanSession session(Netlist(nl), opts);
    FAIL() << "expected Error mentioning \"" << needle << "\"";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("ScanSession: ", 0), 0u)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

void expect_same_score(const CandidateScore& a, const CandidateScore& b,
                       const std::string& what) {
  EXPECT_EQ(a.fault, b.fault) << what;
  EXPECT_EQ(a.fault_index, b.fault_index) << what;
  EXPECT_EQ(a.tfsf, b.tfsf) << what;
  EXPECT_EQ(a.tfsp, b.tfsp) << what;
  EXPECT_EQ(a.tpsf, b.tpsf) << what;
  EXPECT_EQ(a.dropped, b.dropped) << what;
}

void expect_same_result(const DiagnosisResult& a, const DiagnosisResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.num_faults, b.num_faults) << what;
  EXPECT_EQ(a.num_candidates, b.num_candidates) << what;
  EXPECT_EQ(a.num_dropped, b.num_dropped) << what;
  EXPECT_EQ(a.num_failures, b.num_failures) << what;
  EXPECT_EQ(a.num_failing_patterns, b.num_failing_patterns) << what;
  EXPECT_EQ(a.num_failing_points, b.num_failing_points) << what;
  EXPECT_EQ(a.num_windows, b.num_windows) << what;
  EXPECT_EQ(a.num_failing_windows, b.num_failing_windows) << what;
  EXPECT_EQ(a.union_fallback, b.union_fallback) << what;
  ASSERT_EQ(a.ranked.size(), b.ranked.size()) << what;
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    expect_same_score(a.ranked[i], b.ranked[i],
                      what + " @" + std::to_string(i));
  }
  ASSERT_EQ(a.multiplets.size(), b.multiplets.size()) << what;
  for (std::size_t s = 0; s < a.multiplets.size(); ++s) {
    const SuspectSet& sa = a.multiplets[s];
    const SuspectSet& sb = b.multiplets[s];
    const std::string tag = what + " set " + std::to_string(s);
    EXPECT_EQ(sa.covered, sb.covered) << tag;
    EXPECT_EQ(sa.uncovered, sb.uncovered) << tag;
    ASSERT_EQ(sa.members.size(), sb.members.size()) << tag;
    for (std::size_t m = 0; m < sa.members.size(); ++m) {
      expect_same_score(sa.members[m], sb.members[m],
                        tag + " member " + std::to_string(m));
    }
  }
}

// ---------- option validation ------------------------------------------------

TEST(SessionValidationTest, RejectsBadMisrConfig) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  FlowOptions opts;

  opts.misr.width = 3;
  expect_ctor_error(nl, opts, "misr.width");
  opts.misr.width = 65;
  expect_ctor_error(nl, opts, "misr.width");

  opts = FlowOptions{};
  opts.misr.window = 0;
  expect_ctor_error(nl, opts, "misr.window");

  // Missing top polynomial tap: the transition would not be invertible.
  opts = FlowOptions{};
  opts.misr.width = 16;
  opts.misr.poly = 0x0001;
  expect_ctor_error(nl, opts, "top");

  // Polynomial wider than the register.
  opts = FlowOptions{};
  opts.misr.width = 8;
  opts.misr.poly = 0x1ff;
  expect_ctor_error(nl, opts, "misr.poly");
}

TEST(SessionValidationTest, RejectsBadThreadAndSampleCounts) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  FlowOptions opts;
  opts.diag.num_threads = -1;
  expect_ctor_error(nl, opts, "diag.num_threads");

  opts = FlowOptions{};
  opts.observability.samples = 1;
  expect_ctor_error(nl, opts, "observability.samples");

  opts = FlowOptions{};
  opts.fill.trials = 0;
  expect_ctor_error(nl, opts, "fill.trials");
}

TEST(SessionValidationTest, RejectsEmptyAndUnboundPatternSets) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  ScanSession session{Netlist(nl)};

  // Zero-pattern test set.
  EXPECT_THROW(session.bind_patterns({}), Error);

  // Diagnosing before binding names the fix.
  FailureLog log;
  log.num_patterns = 4;
  try {
    session.diagnose(Evidence(log));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bind_patterns"), std::string::npos)
        << e.what();
  }
}

TEST(SessionValidationTest, FullResponseDiagnosisRejectsXPatterns) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  ScanSession session{Netlist(nl)};
  std::vector<TestPattern> pats = random_patterns(nl, 8, 7);
  pats[3].pi[0] = Logic::X;  // an unfilled care-free bit
  session.bind_patterns(pats);

  FailureLog log;
  log.num_patterns = pats.size();
  EXPECT_THROW(session.diagnose(Evidence(log)), Error);
  EXPECT_THROW(session.inject(Fault{nl.find("G10"), -1, false}), Error);

  // The compacted path X-masks instead: the same binding diagnoses fine.
  const Fault f = session.faults()[2];
  MisrConfig cfg;
  cfg.window = 4;
  const SignatureLog slog = session.inject_compacted(f, cfg);
  const DiagnosisResult res = session.diagnose(Evidence(slog));
  if (slog.num_failing_windows() > 0) {
    EXPECT_GE(res.rank_of(f), 1u);
  }
}

// ---------- one entry point, both alternatives -------------------------------

TEST(SessionDiagnoseTest, EvidenceDispatchMatchesOneShotEngines) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 64, 0x5e55);
  const auto faults = collapse_faults(nl);

  FlowOptions opts;
  opts.misr.window = 16;
  ScanSession session(Netlist(nl), opts);
  session.bind_patterns(pats);
  ASSERT_EQ(session.faults().size(), faults.size());

  ResponseCapture cap(nl);
  SignatureCapture scap(nl, opts.misr);

  int compared = 0;
  for (std::size_t fi = 5; fi < faults.size() && compared < 6; fi += 53) {
    const FailureLog log = cap.inject(pats, faults[fi]);
    if (log.failures.empty()) continue;
    ++compared;

    // Session injection reproduces the one-shot tester...
    EXPECT_EQ(session.inject(faults[fi]).failures, log.failures);

    // ...and one diagnose() entry point serves both evidence kinds,
    // bit-identical to a fresh session per log.
    expect_same_result(session.diagnose(Evidence(log)),
                       diagnose_once(nl, pats, log, opts.diag), "full");

    const SignatureLog slog = scap.inject(pats, faults[fi]);
    EXPECT_EQ(session.inject_compacted(faults[fi]).observed, slog.observed);
    expect_same_result(session.diagnose(Evidence(slog)),
                       diagnose_once(nl, pats, slog, opts.diag), "compact");
  }
  EXPECT_GE(compared, 3);
}

TEST(SessionDiagnoseTest, RebindInvalidatesPatternKeyedCaches) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto faults = collapse_faults(nl);
  const auto pats_a = random_patterns(nl, 48, 0xaaaa);
  const auto pats_b = random_patterns(nl, 80, 0xbbbb);

  ScanSession session{Netlist(nl)};
  ResponseCapture cap(nl);

  const Fault f = faults[17];
  for (const auto* pats : {&pats_a, &pats_b, &pats_a}) {
    session.bind_patterns(*pats);
    const FailureLog log = cap.inject(*pats, f);
    if (log.failures.empty()) continue;
    expect_same_result(session.diagnose(Evidence(log)),
                       diagnose_once(nl, *pats, log), "rebind");
  }
}

// Past the good-machine cache cap both scorers replay blocks through
// streaming simulators; their results must equal scoring from cached
// blocks. A session always caches kDefaultMaxCachedBlocks blocks, so both
// sides are the session's engines built on its context: one over a cache
// whose small cap streams the 10 blocks of the pattern set, one over a
// cache that holds them all. Each thread count reaches a different
// streaming scratch: the caller's for pool-parallel scoring and the
// noise-recovery stages, each worker's for the compacted sweep and the
// batch fan-out. Fault-pair logs drive the union rescore and the
// multiplet cover over streamed blocks.
TEST(SessionDiagnoseTest, StreamedGoodMachineMatchesCached) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto pats =
      random_patterns(nl, static_cast<int>(9 * kSweepLanes + 1), 0x57e4);
  const auto ctx = std::make_shared<const DesignContext>(Netlist(nl));
  const auto& faults = ctx->faults();
  ScanSession tester(ctx);
  tester.bind_patterns(pats);
  SignatureCapture scap(nl, tester.options().misr);
  scap.bind(pats);

  /// Both diagnosers over one good-block cache bound at `cap` blocks.
  struct Engines {
    Engines(const DesignContext& c, std::span<const TestPattern> p,
            std::size_t cap, int threads)
        : pool(threads) {
      goods.bind(c.netlist(), p, cap);
      const DiagnosisOptions dopts{.num_threads = threads};
      diag = std::make_unique<Diagnoser>(c.netlist(), dopts, pool,
                                         c.points(), c.cones(), goods);
      sdiag = std::make_unique<SignatureDiagnoser>(
          c.netlist(), dopts, pool, c.points(), c.cones(), goods);
    }
    ThreadPool pool;
    GoodBlockCache goods;
    std::unique_ptr<Diagnoser> diag;
    std::unique_ptr<SignatureDiagnoser> sdiag;
  };

  for (int threads : {1, 4}) {
    Engines streamed(*ctx, pats, 2, threads);
    Engines cached(*ctx, pats, GoodBlockCache::kDefaultMaxCachedBlocks,
                   threads);
    ASSERT_EQ(streamed.goods.num_blocks(), 10u);
    ASSERT_FALSE(streamed.goods.cached());
    ASSERT_TRUE(cached.goods.cached());
    const auto full = [&](Engines& e, const FailureLog& log) {
      return e.diag->diagnose(pats, faults, log);
    };
    const auto compact = [&](Engines& e, const SignatureLog& log) {
      return e.sdiag->diagnose(pats, faults, log, scap.mask(),
                               scap.expected());
    };

    std::vector<FailureLog> batch;
    int compared = 0;
    bool any_multiplets = false;
    for (std::size_t fi = 1; fi < faults.size() && compared < 4; fi += 7) {
      const Fault f = faults[fi];
      const FailureLog log = tester.inject(f);
      const SignatureLog slog = tester.inject_compacted(f);
      if (log.failures.empty()) continue;
      const Fault pair[2] = {f, faults[(fi + 11) % faults.size()]};
      const FailureLog plog = tester.inject(pair);
      ++compared;
      const std::string tag =
          f.to_string(nl) + " T=" + std::to_string(threads);
      expect_same_result(full(streamed, log), full(cached, log),
                         tag + " full");
      expect_same_result(compact(streamed, slog), compact(cached, slog),
                         tag + " compact");
      const DiagnosisResult pres = full(streamed, plog);
      any_multiplets |= !pres.multiplets.empty();
      expect_same_result(pres, full(cached, plog), tag + " pair");
      batch.push_back(log);
      batch.push_back(plog);
    }
    EXPECT_EQ(compared, 4);
    EXPECT_TRUE(any_multiplets)
        << "no fault-pair log reached the multiplet cover";

    std::vector<const FailureLog*> logs;
    for (const FailureLog& log : batch) logs.push_back(&log);
    const auto sresults = streamed.diag->diagnose_batch(pats, faults, logs);
    const auto cresults = cached.diag->diagnose_batch(pats, faults, logs);
    ASSERT_EQ(sresults.size(), batch.size());
    ASSERT_EQ(cresults.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_same_result(sresults[i], cresults[i],
                         "batch #" + std::to_string(i) +
                             " T=" + std::to_string(threads));
    }

    EXPECT_GT(streamed.goods.streamed_reads(), 0u);
    EXPECT_EQ(cached.goods.streamed_reads(), 0u);
  }
}

// The engines never bind the good machine themselves: a borrowed cache
// that its owner bound to another pattern set must be rejected, not
// silently scored against.
TEST(BorrowedEngineTest, StaleGoodBlockCacheIsRejected) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto pats_a = random_patterns(nl, 32, 0xa);
  const auto pats_b = random_patterns(nl, 32, 0xb);
  const DesignContext ctx{Netlist(nl)};
  const auto& faults = ctx.faults();
  ThreadPool pool(1);
  GoodBlockCache goods;
  goods.bind(ctx.netlist(), pats_a);
  Diagnoser diag(ctx.netlist(), {}, pool, ctx.points(), ctx.cones(), goods);
  SignatureDiagnoser sdiag(ctx.netlist(), {}, pool, ctx.points(),
                           ctx.cones(), goods);

  const auto expect_stale = [](const auto& call) {
    try {
      call();
      FAIL() << "stale good-block cache accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "bound to a different pattern set"),
                std::string::npos)
          << e.what();
    }
  };

  ResponseCapture cap(nl);
  SignatureCapture scap(nl, MisrConfig{.window = 8});
  const Fault f = faults[1];
  EXPECT_NO_THROW(diag.diagnose(pats_a, faults, cap.inject(pats_a, f)));
  const FailureLog log_b = cap.inject(pats_b, f);
  expect_stale([&] { diag.diagnose(pats_b, faults, log_b); });

  const SignatureLog slog_a = scap.inject(pats_a, f);
  EXPECT_NO_THROW(
      sdiag.diagnose(pats_a, faults, slog_a, scap.mask(), scap.expected()));
  const SignatureLog slog_b = scap.inject(pats_b, f);
  expect_stale([&] {
    sdiag.diagnose(pats_b, faults, slog_b, scap.mask(), scap.expected());
  });
}

// ---------- session-reuse determinism acceptance -----------------------------

// For every benchgen profile and every num_threads in {1, 4}: one
// long-lived session serves repeated and interleaved
// full-response diagnosis, compacted diagnosis, observability and
// don't-care fill calls; every result must be bit-identical to the
// corresponding one-shot call (a fresh tenant session for diagnosis, the
// engine itself otherwise), and the diagnosis rankings must also be
// bit-identical across both configurations.
TEST(SessionReuseAcceptance, InterleavedCallsMatchOneShotOnAllProfiles) {
  for (const SynthProfile& profile : iscas89_profiles()) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(profile.name));
    const auto faults = collapse_faults(nl);
    const auto pats = random_patterns(nl, 48, 0x5e5510 + profile.seed);

    // Two detected faults per profile: one early, one late.
    FaultSimulator fsim(nl);
    const FaultSimResult det = fsim.run(pats, faults);
    std::vector<std::size_t> sample;
    for (std::size_t fi = 0; fi < faults.size() && sample.size() < 1; ++fi) {
      if (det.detected[fi]) sample.push_back(fi);
    }
    for (std::size_t fi = faults.size(); fi-- > 0 && sample.size() < 2;) {
      if (det.detected[fi]) sample.push_back(fi);
    }
    ASSERT_EQ(sample.size(), 2u) << profile.name;
    const Fault f0 = faults[sample[0]];
    const Fault f1 = faults[sample[1]];

    // One-shot logs, shared across configurations.
    ResponseCapture cap(nl);
    const FailureLog log0 = cap.inject(pats, f0);
    const FailureLog log1 = cap.inject(pats, f1);

    std::vector<bool> eligible(nl.dffs().size());
    for (std::size_t i = 0; i < eligible.size(); ++i) eligible[i] = i % 2 == 0;
    const auto ctx = std::make_shared<const DesignContext>(Netlist(nl));

    DiagnosisResult ref_full, ref_compact;
    bool have_ref = false;
    for (int threads : {1, 4}) {
      FlowOptions opts;
      opts.diag.num_threads = threads;
      opts.misr.window = 16;  // 3 windows over 48 patterns
      opts.observability.samples = 64;
      opts.observability.num_threads = threads;
      opts.fill.trials = 8;

      ScanSession session(Netlist(nl), opts);
      session.bind_patterns(pats);
      SignatureCapture scap(nl, opts.misr);
      const SignatureLog slog0 = scap.inject(pats, f0);
      const SignatureLog slog1 = scap.inject(pats, f1);

      const std::string tag = profile.name + " T=" + std::to_string(threads);

      // Interleave every engine through the one session, repeating the
      // first diagnosis at the end: reuse must never change a result.
      const DiagnosisResult full_a = session.diagnose(Evidence(log0));
      const DiagnosisResult compact_a = session.diagnose(Evidence(slog1));
      const std::vector<double> obs = session.observability().values();
      std::vector<Logic> pi(nl.inputs().size(), Logic::X);
      std::vector<Logic> mux(nl.dffs().size(), Logic::X);
      const FillResult fill = session.fill(pi, mux, eligible);
      const DiagnosisResult full_b = session.diagnose(Evidence(log1));
      const DiagnosisResult compact_b = session.diagnose(Evidence(slog0));
      const DiagnosisResult full_a2 = session.diagnose(Evidence(log0));
      expect_same_result(full_a, full_a2, tag + " repeat");

      // One-shot references with identical options.
      expect_same_result(full_a, diagnose_once(ctx, pats, log0, opts.diag),
                         tag + " full0");
      expect_same_result(full_b, diagnose_once(ctx, pats, log1, opts.diag),
                         tag + " full1");
      expect_same_result(compact_a,
                         diagnose_once(ctx, pats, slog1, opts.diag),
                         tag + " compact1");
      expect_same_result(compact_b,
                         diagnose_once(ctx, pats, slog0, opts.diag),
                         tag + " compact0");

      const LeakageObservability obs_ref(nl, session.leakage_model(),
                                         opts.observability);
      ASSERT_EQ(obs.size(), obs_ref.values().size()) << tag;
      for (std::size_t g = 0; g < obs.size(); ++g) {
        ASSERT_EQ(obs[g], obs_ref.values()[g]) << tag << " gate " << g;
      }

      std::vector<Logic> pi_ref(nl.inputs().size(), Logic::X);
      std::vector<Logic> mux_ref(nl.dffs().size(), Logic::X);
      const FillResult fill_ref = fill_dont_cares_min_leakage(
          nl, session.leakage_model(), pi_ref, mux_ref, eligible, opts.fill);
      EXPECT_EQ(fill.best_leakage_na, fill_ref.best_leakage_na) << tag;
      EXPECT_EQ(pi, pi_ref) << tag;
      EXPECT_EQ(mux, mux_ref) << tag;

      // Rankings are additionally bit-identical across configurations.
      EXPECT_GE(full_a.rank_of(f0), 1u) << tag;
      if (!have_ref) {
        ref_full = full_a;
        ref_compact = compact_a;
        have_ref = true;
      } else {
        expect_same_result(full_a, ref_full, tag + " cross-config full");
        expect_same_result(compact_a, ref_compact,
                           tag + " cross-config compact");
      }
    }
  }
}

// ---------- diagnose_batch ---------------------------------------------------

// A mixed batch on a concurrent (4-worker) pool must reproduce sequential
// diagnose() results in input order. Run under TSan, this is the data-race
// check for the batch fan-out (logs scored concurrently by different
// workers against the shared good-block cache).
TEST(SessionBatchTest, ConcurrentMixedBatchMatchesSequential) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s713"));
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(nl, 96, 0xba7c4);

  FlowOptions opts;
  opts.diag.num_threads = 4;
  opts.misr.window = 16;
  ScanSession session(Netlist(nl), opts);
  session.bind_patterns(pats);

  // 8 full logs + 2 signature logs, all from distinct injected faults.
  std::vector<Evidence> evidence;
  std::vector<Fault> injected;
  for (std::size_t fi = 3; fi < faults.size() && injected.size() < 10;
       fi += 97) {
    const Fault f = faults[fi];
    if (injected.size() % 5 == 4) {
      const SignatureLog slog = session.inject_compacted(f);
      if (slog.num_failing_windows() == 0) continue;
      evidence.push_back(slog);
    } else {
      const FailureLog log = session.inject(f);
      if (log.failures.empty()) continue;
      evidence.push_back(log);
    }
    injected.push_back(f);
  }
  ASSERT_GE(evidence.size(), 6u);

  const std::vector<DiagnosisResult> batch = session.diagnose_batch(evidence);
  ASSERT_EQ(batch.size(), evidence.size());
  for (std::size_t i = 0; i < evidence.size(); ++i) {
    const DiagnosisResult seq = session.diagnose(evidence[i]);
    expect_same_result(batch[i], seq, "batch entry " + std::to_string(i));
    EXPECT_EQ(batch[i].rank_of(injected[i]), 1u) << i;
  }

  // A single-worker session produces the identical batch.
  FlowOptions serial = opts;
  serial.diag.num_threads = 1;
  ScanSession session1(Netlist(nl), serial);
  session1.bind_patterns(pats);
  const std::vector<DiagnosisResult> batch1 = session1.diagnose_batch(evidence);
  ASSERT_EQ(batch1.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_same_result(batch[i], batch1[i],
                       "T=1 vs T=4 batch entry " + std::to_string(i));
  }

  EXPECT_TRUE(session.diagnose_batch({}).empty());
}

// Batch scoring must also agree past the good-block cache cap (streaming
// path): more blocks than the cap force per-worker streaming simulators.
TEST(SessionBatchTest, StreamingBatchMatchesSequential) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(
      nl,
      static_cast<int>(GoodBlockCache::kDefaultMaxCachedBlocks * kSweepLanes +
                       9),
      0x57e0);

  FlowOptions opts;
  opts.diag.num_threads = 4;
  ScanSession session(Netlist(nl), opts);
  session.bind_patterns(pats);

  std::vector<Evidence> evidence;
  std::vector<Fault> injected;
  for (std::size_t fi = 11; fi < faults.size() && injected.size() < 3;
       fi += 241) {
    const FailureLog log = session.inject(faults[fi]);
    if (log.failures.empty()) continue;
    evidence.push_back(log);
    injected.push_back(faults[fi]);
  }
  ASSERT_GE(evidence.size(), 2u);

  const std::vector<DiagnosisResult> batch = session.diagnose_batch(evidence);
  for (std::size_t i = 0; i < evidence.size(); ++i) {
    expect_same_result(batch[i], session.diagnose(evidence[i]),
                       "streaming batch entry " + std::to_string(i));
    EXPECT_EQ(batch[i].rank_of(injected[i]), 1u);
  }
  EXPECT_GT(session.metrics().counter(CounterId::kGoodCacheStreamedReads), 0u);
}

}  // namespace
}  // namespace scanpower
