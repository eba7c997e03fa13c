// Diagnosis engine: response capture, failure logs, candidate ranking.
//
// The acceptance criterion for the subsystem: injecting any detected
// collapsed fault and diagnosing from its synthetic failure log must rank
// that fault #1 (ties share a rank -- candidates indistinguishable under
// the applied patterns), with bit-identical rankings across thread
// counts.

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "benchgen/benchgen.hpp"
#include "core/design_context.hpp"
#include "diag/diagnose.hpp"
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

// ---------- observation points ----------------------------------------------

TEST(ObservationPointsTest, IndexSpaceCoversPosAndCells) {
  const Netlist nl = make_s27();
  const ObservationPoints ops(nl);
  ASSERT_EQ(ops.size(), nl.outputs().size() + nl.dffs().size());
  ASSERT_EQ(ops.num_pos(), nl.outputs().size());
  for (std::size_t op = 0; op < ops.num_pos(); ++op) {
    EXPECT_FALSE(ops.is_dff_capture(op));
    EXPECT_EQ(ops.observed_gate(op), nl.outputs()[op]);
  }
  for (std::size_t c = 0; c < nl.dffs().size(); ++c) {
    const std::size_t op = ops.num_pos() + c;
    EXPECT_TRUE(ops.is_dff_capture(op));
    EXPECT_EQ(ops.dff_gate(op), nl.dffs()[c]);
    EXPECT_EQ(ops.observed_gate(op), nl.fanins(nl.dffs()[c])[0]);
    EXPECT_EQ(ops.point_of_dff(nl.dffs()[c]), op);
  }
  // Every observation point appears exactly once in its gate's point list.
  std::size_t total = 0;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    total += ops.points_of_gate(g).size();
  }
  EXPECT_EQ(total, ops.size());
}

// ---------- good-machine signatures -----------------------------------------

// Signature bits must equal the single-word packed simulator's lanes for
// every pattern, and the invalid lanes of the ragged final word must stay
// zero.
TEST(ResponseCaptureTest, GoodSignaturesMatchPackedSim) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 100, 0xd1a6);
  ResponseCapture cap(nl);
  const ResponseMatrix m = cap.capture_good(pats);
  const ObservationPoints& ops = cap.points();
  ASSERT_EQ(m.num_points, ops.size());
  ASSERT_EQ(m.num_patterns, pats.size());

  PackedSimulator sim(nl);
  for (std::size_t base = 0; base < pats.size(); base += 64) {
    load_pattern_block(nl, pats, base, sim);
    sim.eval();
    const std::size_t batch = std::min<std::size_t>(64, pats.size() - base);
    for (std::size_t op = 0; op < ops.size(); ++op) {
      for (std::size_t p = 0; p < batch; ++p) {
        const bool expect = (sim.value(ops.observed_gate(op)) >> p) & 1;
        EXPECT_EQ(m.bit(op, base + p), expect) << "op " << op << " p " << p;
      }
    }
  }
  const std::size_t last = m.words_per_point() - 1;
  const PatternWord invalid = ~((PatternWord{1} << (pats.size() % 64)) - 1);
  for (std::size_t op = 0; op < ops.size(); ++op) {
    EXPECT_EQ(m.row(op)[last] & invalid, 0u) << "op " << op;
  }
}

// ---------- synthetic failure logs ------------------------------------------

// An injected fault's failure log must agree with brute force: simulate
// the faulty circuit per pattern and diff the observable responses.
TEST(ResponseCaptureTest, InjectMatchesBruteForce) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 70, 0xfa11);
  const auto faults = collapse_faults(nl);
  ResponseCapture cap(nl);

  // A spread of faults, including DFF-related sites.
  for (std::size_t fi = 0; fi < faults.size(); fi += 97) {
    const Fault& f = faults[fi];
    const FailureLog log = cap.inject(pats, f);

    // Brute force via packed sim with the fault applied to a one-pattern
    // block (lane 0 only).
    std::vector<Failure> expect;
    FaultConeEvaluator ev;
    ev.init(nl);
    BlockSimulator good(nl, kSweepWords);
    const ObservationPoints& ops = cap.points();
    for (std::size_t p = 0; p < pats.size(); ++p) {
      load_pattern_block(nl, std::span(pats).subspan(p, 1), 0, good);
      good.eval();
      const PackedBlock<kSweepWords> mask = lane_validity_mask<kSweepWords>(1);
      const bool d_branch = f.pin >= 0 && nl.type(f.gate) == GateType::Dff;
      ev.propagate(good, f, mask, ops.observable(),
                   [&](GateId gate, const PatternWord* diff) {
                     if ((diff[0] & 1) == 0) return;
                     if (d_branch && gate == f.gate) {
                       expect.push_back(
                           {static_cast<std::uint32_t>(p),
                            static_cast<std::uint32_t>(
                                ops.point_of_dff(gate))});
                     } else {
                       for (std::uint32_t op : ops.points_of_gate(gate)) {
                         expect.push_back({static_cast<std::uint32_t>(p), op});
                       }
                     }
                   });
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(log.failures, expect) << f.to_string(nl);
  }
}

// A stem fault on a DFF's Q net must be reported at the observation
// points that *read* Q (the downstream capture point, the Q net's PO
// point) -- not at the DFF's own capture point, which observes its D
// driver. Only D-branch faults belong to the cell's own capture point.
TEST(ResponseCaptureTest, DffStemFaultReportsAtConsumingPoints) {
  NetlistBuilder b("shift2");
  b.add_input("a");
  b.add_gate(GateType::Dff, "q1", {"a"});
  b.add_gate(GateType::Dff, "q2", {"q1"});
  b.add_output("q1");  // Q1 is both a PO and DFF2's D driver
  b.add_output("q2");
  const Netlist nl = b.link();
  const GateId q1 = nl.find("q1");
  const GateId q2 = nl.find("q2");

  ResponseCapture cap(nl);
  const ObservationPoints& ops = cap.points();
  const std::size_t po_q1 = 0;  // outputs() order: q1, q2
  const std::size_t cap_q1 = ops.point_of_dff(q1);
  const std::size_t cap_q2 = ops.point_of_dff(q2);

  // One pattern with q1 = 1: the q1/sa0 stem fault is excited and must
  // fail exactly at PO(q1) and q2's capture point.
  TestPattern pat;
  pat.pi = {Logic::One};
  pat.ppi = {Logic::One, Logic::Zero};
  const std::vector<TestPattern> pats{pat};
  const FailureLog stem = cap.inject(pats, Fault{q1, -1, false});
  const std::vector<Failure> expect_stem = {
      {0, static_cast<std::uint32_t>(po_q1)},
      {0, static_cast<std::uint32_t>(cap_q2)}};
  EXPECT_EQ(stem.failures, expect_stem);

  // The D-branch fault on q1 (driver a = 1, forced 0) fails only at q1's
  // own capture point.
  const FailureLog branch = cap.inject(pats, Fault{q1, 0, false});
  const std::vector<Failure> expect_branch = {
      {0, static_cast<std::uint32_t>(cap_q1)}};
  EXPECT_EQ(branch.failures, expect_branch);

  // And diagnosis from the stem log scores the stem fault as exact.
  const DiagnosisResult res =
      diagnose_once(nl, pats, stem, DiagnosisOptions{});
  EXPECT_EQ(res.rank_of(Fault{q1, -1, false}), 1u);
  ASSERT_FALSE(res.ranked.empty());
  EXPECT_TRUE(res.ranked[0].exact());
}

TEST(DiagnoseTest, RejectsUnsortedLog) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto pats = random_patterns(nl, 8, 5);
  ScanSession session{Netlist(nl)};
  session.bind_patterns(pats);
  FailureLog log;
  log.num_patterns = pats.size();
  log.failures = {{3, 0}, {1, 0}};
  EXPECT_THROW(session.diagnose(log), Error);
  log.normalize();
  const DiagnosisResult res = session.diagnose(log);
  EXPECT_EQ(res.num_failures, 2u);
}

TEST(FailureLogTest, SaveLoadRoundTrip) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 40, 0x10c);
  const auto faults = collapse_faults(nl);
  ResponseCapture cap(nl);
  FailureLog log = cap.inject(pats, faults[7]);
  ASSERT_FALSE(log.failures.empty());

  std::stringstream ss;
  save_failure_log(ss, log, &nl, &cap.points());
  const FailureLog back = load_failure_log(ss);
  EXPECT_EQ(back.circuit, log.circuit);
  EXPECT_EQ(back.num_patterns, log.num_patterns);
  EXPECT_EQ(back.failures, log.failures);
}

TEST(FailureLogTest, LoadRejectsGarbage) {
  std::stringstream ss("patterns 4\nflail 1 2\n");
  EXPECT_THROW(load_failure_log(ss), Error);
}

// Hardened ingestion: every malformed log is rejected with a typed Error
// naming the offending line, so a tester-transfer glitch points at the
// exact byte range instead of silently skewing the diagnosis.
TEST(FailureLogTest, MalformedLogsNameTheOffendingLine) {
  const auto reject = [](const std::string& text, const std::string& expect) {
    std::stringstream ss(text);
    try {
      load_failure_log(ss);
      FAIL() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
          << "error \"" << e.what() << "\" lacks \"" << expect << "\" for:\n"
          << text;
    }
  };
  // Each expectation pins both the line number and the diagnostic text.
  reject("fail 0 1\n", "line 1");                      // fail before patterns
  reject("fail 0 1\n", "before the patterns header");
  reject("patterns 4\npatterns 4\nend 0\n", "line 2");  // duplicate header
  reject("patterns 4\npatterns 4\nend 0\n", "duplicate");
  reject("patterns -3\n", "bad pattern count");         // signed count
  reject("patterns 4\nfail 9 0\nend 1\n", "line 2");    // pattern out of range
  reject("patterns 4\nfail 9 0\nend 1\n", "out of range");
  reject("patterns 4\nfail 1x 0\nend 1\n", "bad pattern index \"1x\"");
  reject("patterns 4\nfail 1 2abc\nend 1\n", "line 2");  // non-numeric point
  reject("patterns 4\nfail 1 2 3 4\nend 1\n", "trailing");  // extra token
  reject("patterns 4\nfail 1 2\nfail 1 2\nend 2\n", "line 3");  // duplicate rec
  reject("patterns 4\nfail 1 2\nfail 1 2\nend 2\n", "duplicate failure record");
  reject("patterns 4\nfail 1 2\n", "truncated");        // missing end marker
  reject("patterns 4\nfail 1 2\nend 7\n", "end marker claims");
  reject("patterns 4\nend 0\nfail 1 2\n", "after the end marker");
  reject("circuit a\ncircuit b\npatterns 4\nend 0\n", "line 2");
}

// The loader rejects out-of-range indices itself when given the
// observation-point space; without it the session validates in-memory
// logs at diagnose() time (see test_session.cpp).
TEST(FailureLogTest, LoadChecksPointRangeWhenOpsGiven) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  ResponseCapture cap(nl);
  const std::size_t num_ops = cap.points().size();
  std::stringstream ok(strprintf("patterns 4\nfail 1 %zu\nend 1\n",
                                 num_ops - 1));
  EXPECT_EQ(load_failure_log(ok, &nl, &cap.points()).failures.size(), 1u);
  std::stringstream bad(strprintf("patterns 4\nfail 1 %zu\nend 1\n", num_ops));
  try {
    load_failure_log(bad, &nl, &cap.points());
    FAIL() << "accepted out-of-range observation point";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

// Name-based records ("fail <pattern> po:<net>" / "ff:<cell>") round-trip
// through save/load and resolve to the same failures -- they reference
// nets, not indices, so they survive netlist re-finalization.
TEST(FailureLogTest, NamedRecordsRoundTrip) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 40, 0x10c);
  const auto faults = collapse_faults(nl);
  ResponseCapture cap(nl);
  FailureLog log = cap.inject(pats, faults[7]);
  ASSERT_FALSE(log.failures.empty());

  std::stringstream ss;
  save_failure_log(ss, log, &nl, &cap.points(), /*named_records=*/true);
  const std::string text = ss.str();
  EXPECT_EQ(text.find(" 7\n"), std::string::npos);  // no raw indices
  EXPECT_TRUE(text.find("po:") != std::string::npos ||
              text.find("ff:") != std::string::npos);

  const FailureLog back = load_failure_log(ss, &nl, &cap.points());
  EXPECT_EQ(back.num_patterns, log.num_patterns);
  EXPECT_EQ(back.failures, log.failures);

  // Loading name-based records without the netlist context must fail
  // loudly rather than mis-index.
  std::stringstream again(text);
  EXPECT_THROW(load_failure_log(again), Error);

  // The informational "dff:<cell>.D" alias resolves too.
  const std::size_t cap_op = cap.points().num_pos();  // first capture point
  std::stringstream alias("patterns 40\nfail 3 " +
                          cap.points().name(nl, cap_op) + "\nend 1\n");
  const FailureLog al = load_failure_log(alias, &nl, &cap.points());
  ASSERT_EQ(al.failures.size(), 1u);
  EXPECT_EQ(al.failures[0].op, static_cast<std::uint32_t>(cap_op));
}

// Fuzz: random failure logs survive save -> load -> save in both text
// formats (index-based and named po:/ff: records) with a byte-identical
// second save and structural equality -- not just the hand-written logs
// the example tests cover.
TEST(FailureLogTest, FuzzRoundTripIsByteIdentical) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const ObservationPoints ops(nl);
  Rng rng(0xf0f0);
  for (int t = 0; t < 200; ++t) {
    FailureLog log;
    log.circuit = t % 7 == 0 ? "" : "c" + std::to_string(rng.next_below(1000));
    log.num_patterns = 1 + rng.next_below(200);
    const std::size_t raw = rng.next_below(60);  // duplicates welcome
    for (std::size_t i = 0; i < raw; ++i) {
      log.failures.push_back(
          {static_cast<std::uint32_t>(rng.next_below(log.num_patterns)),
           static_cast<std::uint32_t>(rng.next_below(ops.size()))});
    }
    log.normalize();

    // Index-based records: loadable without any netlist context.
    std::stringstream first;
    save_failure_log(first, log, &nl, &ops);
    const FailureLog back = load_failure_log(first);
    EXPECT_EQ(back.circuit, log.circuit);
    EXPECT_EQ(back.num_patterns, log.num_patterns);
    EXPECT_EQ(back.failures, log.failures);
    std::stringstream second;
    save_failure_log(second, back, &nl, &ops);
    EXPECT_EQ(second.str(), first.str());

    // Named po:/ff: records: resolved against the netlist on load.
    std::stringstream named_first;
    save_failure_log(named_first, log, &nl, &ops, /*named_records=*/true);
    const FailureLog named_back = load_failure_log(named_first, &nl, &ops);
    EXPECT_EQ(named_back.circuit, log.circuit);
    EXPECT_EQ(named_back.num_patterns, log.num_patterns);
    EXPECT_EQ(named_back.failures, log.failures);
    std::stringstream named_second;
    save_failure_log(named_second, named_back, &nl, &ops,
                     /*named_records=*/true);
    EXPECT_EQ(named_second.str(), named_first.str());
  }
}

TEST(FailureLogTest, NamedRecordRejectsUnknownNet) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const ObservationPoints ops(nl);
  std::stringstream ss("patterns 4\nfail 0 po:not_a_net\n");
  EXPECT_THROW(load_failure_log(ss, &nl, &ops), Error);
  std::stringstream ss2("patterns 4\nfail 0 zz:whatever\n");
  EXPECT_THROW(load_failure_log(ss2, &nl, &ops), Error);
}

// ---------- scoring early-exit ----------------------------------------------

// Early-exit may only drop candidates that provably cannot win: the top
// of the ranking (and every candidate at least as good as the best
// no-early-exit explanation) must be unchanged, and dropped candidates
// must rank strictly after all fully scored ones.
TEST(DiagnoseTest, EarlyExitPreservesTheWinner) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(nl, 96, 0xe4e);
  ResponseCapture cap(nl);
  const auto ctx = std::make_shared<const DesignContext>(Netlist(nl));
  ScanSession fast(ctx, diag_flow_options({.score_early_exit = true}));
  ScanSession full(ctx, diag_flow_options({.score_early_exit = false}));
  fast.bind_patterns(pats);
  full.bind_patterns(pats);

  int compared = 0;
  std::size_t total_dropped = 0;
  for (std::size_t fi = 0; fi < faults.size(); fi += 23) {
    const FailureLog log = cap.inject(pats, faults[fi]);
    if (log.failures.empty()) continue;
    const DiagnosisResult a = fast.diagnose(log);
    const DiagnosisResult b = full.diagnose(log);
    ASSERT_EQ(a.ranked.size(), b.ranked.size());
    EXPECT_EQ(b.num_dropped, 0u);
    total_dropped += a.num_dropped;
    EXPECT_EQ(a.rank_of(faults[fi]), b.rank_of(faults[fi]));
    EXPECT_EQ(a.ranked[0].fault, b.ranked[0].fault);
    EXPECT_EQ(a.ranked[0].tfsf, b.ranked[0].tfsf);
    EXPECT_EQ(a.ranked[0].hamming(), b.ranked[0].hamming());
    const std::uint64_t best = b.ranked[0].hamming();
    for (std::size_t i = 0; i < a.ranked.size(); ++i) {
      if (!a.ranked[i].dropped) continue;
      // Every following candidate is dropped too (they sort last)...
      for (std::size_t j = i; j < a.ranked.size(); ++j) {
        EXPECT_TRUE(a.ranked[j].dropped);
      }
      // ...and the full scoring confirms each dropped candidate is
      // strictly worse than the winner.
      for (std::size_t j = i; j < a.ranked.size(); ++j) {
        const std::size_t full_rank = b.rank_of(a.ranked[j].fault);
        EXPECT_GT(full_rank, 1u) << a.ranked[j].fault.to_string(nl);
      }
      break;
    }
    ++compared;
  }
  EXPECT_GE(compared, 10);
  // The whole point: on single-fault logs most candidates drop early.
  EXPECT_GT(total_dropped, 0u);
}

// ---------- diagnosis -------------------------------------------------------

TEST(DiagnoseTest, InjectedFaultRanksFirstOnS344) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(nl, 128, 0xd1a60);
  ResponseCapture cap(nl);
  ScanSession session{Netlist(nl)};
  session.bind_patterns(pats);

  // First fault-sim pass to find detected faults.
  FaultSimulator fsim(nl);
  const FaultSimResult det = fsim.run(pats, faults);
  ASSERT_GT(det.num_detected, 0u);

  int trials = 0;
  for (std::size_t fi = 0; fi < faults.size() && trials < 25; fi += 11) {
    if (!det.detected[fi]) continue;
    ++trials;
    const FailureLog log = cap.inject(pats, faults[fi]);
    ASSERT_FALSE(log.failures.empty());
    const DiagnosisResult res = session.diagnose(log);
    ASSERT_FALSE(res.ranked.empty());
    // The injected fault explains its own log exactly...
    EXPECT_EQ(res.rank_of(faults[fi]), 1u) << faults[fi].to_string(nl);
    // ...and the top candidate is an exact match.
    EXPECT_TRUE(res.ranked[0].exact());
    EXPECT_EQ(res.ranked[0].tfsf, res.num_failures);
  }
  EXPECT_GE(trials, 10);
}

TEST(DiagnoseTest, PruningNeverDropsTheInjectedFault) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(nl, 96, 0xabcd);
  ResponseCapture cap(nl);
  const auto ctx = std::make_shared<const DesignContext>(Netlist(nl));
  ScanSession pruned(ctx, diag_flow_options({.cone_pruning = true}));
  ScanSession full(ctx, diag_flow_options({.cone_pruning = false}));
  pruned.bind_patterns(pats);
  full.bind_patterns(pats);

  for (std::size_t fi = 0; fi < faults.size(); fi += 37) {
    const FailureLog log = cap.inject(pats, faults[fi]);
    if (log.failures.empty()) continue;  // undetected: nothing to diagnose
    const DiagnosisResult a = pruned.diagnose(log);
    const DiagnosisResult b = full.diagnose(log);
    EXPECT_LE(a.num_candidates, b.num_candidates);
    EXPECT_GE(a.rank_of(faults[fi]), 1u);
    // Pruning must not change what the best explanation looks like.
    ASSERT_FALSE(a.ranked.empty());
    ASSERT_FALSE(b.ranked.empty());
    EXPECT_EQ(a.ranked[0].tfsf, b.ranked[0].tfsf);
    EXPECT_EQ(a.ranked[0].hamming(), b.ranked[0].hamming());
  }
}

TEST(DiagnoseTest, EmptyLogScoresEverythingAsUndetected) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(nl, 16, 3);
  FailureLog log;
  log.num_patterns = pats.size();
  const DiagnosisResult res =
      diagnose_once(nl, pats, log, DiagnosisOptions{.cone_pruning = false});
  ASSERT_EQ(res.ranked.size(), faults.size());
  // Exact matches are exactly the faults this pattern set cannot detect.
  FaultSimulator fsim(nl);
  const FaultSimResult det = fsim.run(pats, faults);
  for (const CandidateScore& sc : res.ranked) {
    EXPECT_EQ(sc.exact(), !det.detected[sc.fault_index])
        << sc.fault.to_string(nl);
  }
}

// A pattern set spanning more blocks than a small cache cap exercises the
// re-simulating (streamed) good-machine path of the round loop; rankings
// must still be bit-identical to a run that caches every block. A session
// always caches kDefaultMaxCachedBlocks, so the engine borrows a
// context's points and cones and a cache bound at each cap.
TEST(DiagnoseTest, ManyBlockPatternSetsMatchCachedPath) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto faults = collapse_faults(nl);
  ASSERT_GT(faults.size(), 64u);  // several scoring rounds
  const auto pats = random_patterns(nl, 17 * kSweepLanes + 17, 0xb10c);
  ResponseCapture cap(nl);
  const FailureLog log = cap.inject(pats, faults[3]);
  ASSERT_FALSE(log.failures.empty());

  const DesignContext ctx{Netlist(nl)};
  ThreadPool pool(1);
  DiagnosisResult ref;
  bool have_ref = false;
  for (std::size_t cap_blocks : {GoodBlockCache::kDefaultMaxCachedBlocks,
                                 std::size_t{4}}) {
    GoodBlockCache goods;
    goods.bind(ctx.netlist(), pats, cap_blocks);
    ASSERT_EQ(goods.num_blocks(), 18u);
    ASSERT_EQ(goods.cached(), cap_blocks >= goods.num_blocks());
    Diagnoser d(ctx.netlist(), DiagnosisOptions{.cone_pruning = false}, pool,
                ctx.points(), ctx.cones(), goods);
    const DiagnosisResult res = d.diagnose(pats, faults, log);
    EXPECT_EQ(res.rank_of(faults[3]), 1u);
    if (!have_ref) {
      ref = res;
      have_ref = true;
      continue;
    }
    EXPECT_GT(goods.streamed_reads(), 0u);
    ASSERT_EQ(res.ranked.size(), ref.ranked.size());
    for (std::size_t i = 0; i < ref.ranked.size(); ++i) {
      ASSERT_EQ(res.ranked[i].fault, ref.ranked[i].fault)
          << "cap=" << cap_blocks;
      ASSERT_EQ(res.ranked[i].tfsf, ref.ranked[i].tfsf);
      ASSERT_EQ(res.ranked[i].tpsf, ref.ranked[i].tpsf);
      ASSERT_EQ(res.ranked[i].dropped, ref.ranked[i].dropped);
    }
  }
}

// ---------- acceptance: every profile, deterministic, rank-1 ----------------

struct TrialStats {
  int trials = 0;
  int rank1 = 0;
  int top5 = 0;
};

// For every benchgen profile: inject >= 100 sampled detected collapsed
// faults, diagnose from the synthetic log, and require the injected fault
// (ties share a rank) to place #1 in >= 95% of trials and in the top-5
// always. Rankings must be bit-identical across num_threads in {1, 4}.
TEST(DiagnoseAcceptance, AllProfilesRankInjectedFaultFirst) {
  for (const SynthProfile& profile : iscas89_profiles()) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(profile.name));
    const auto faults = collapse_faults(nl);
    const int num_patterns = 96;
    const auto pats = random_patterns(nl, num_patterns, 0xacce97 + profile.seed);

    FaultSimulator fsim(nl);
    const FaultSimResult det = fsim.run(pats, faults);
    std::vector<std::size_t> detected;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (det.detected[fi]) detected.push_back(fi);
    }
    ASSERT_GE(detected.size(), 100u) << profile.name;

    // Evenly sample ~100 detected faults.
    const std::size_t stride = detected.size() / 100;
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < detected.size() && sample.size() < 100;
         i += stride) {
      sample.push_back(detected[i]);
    }

    ResponseCapture cap(nl);
    const auto ctx = std::make_shared<const DesignContext>(Netlist(nl));
    ScanSession session(ctx, diag_flow_options({.num_threads = 1}));
    session.bind_patterns(pats);
    TrialStats stats;
    for (std::size_t fi : sample) {
      const FailureLog log = cap.inject(pats, faults[fi]);
      ASSERT_FALSE(log.failures.empty()) << profile.name;
      const DiagnosisResult res = session.diagnose(log);
      const std::size_t rank = res.rank_of(faults[fi]);
      ASSERT_GE(rank, 1u) << profile.name << ": injected fault pruned away";
      stats.trials++;
      if (rank == 1) stats.rank1++;
      if (rank <= 5) stats.top5++;
    }
    EXPECT_GE(stats.trials, 100);
    EXPECT_GE(stats.rank1 * 100, stats.trials * 95)
        << profile.name << ": " << stats.rank1 << "/" << stats.trials;
    EXPECT_EQ(stats.top5, stats.trials) << profile.name;

    // Bit-identical rankings across engine configurations on a subset.
    for (int trial = 0; trial < 5; ++trial) {
      const std::size_t fi = sample[sample.size() / 5 * trial];
      const FailureLog log = cap.inject(pats, faults[fi]);
      DiagnosisResult ref;
      bool have_ref = false;
      for (int threads : {1, 4}) {
        const DiagnosisResult res = diagnose_once(
            ctx, pats, log, DiagnosisOptions{.num_threads = threads});
        if (!have_ref) {
          ref = res;
          have_ref = true;
          continue;
        }
        ASSERT_EQ(res.ranked.size(), ref.ranked.size()) << profile.name;
        for (std::size_t i = 0; i < ref.ranked.size(); ++i) {
          ASSERT_EQ(res.ranked[i].fault, ref.ranked[i].fault)
              << profile.name << " T=" << threads;
          ASSERT_EQ(res.ranked[i].tfsf, ref.ranked[i].tfsf);
          ASSERT_EQ(res.ranked[i].tfsp, ref.ranked[i].tfsp);
          ASSERT_EQ(res.ranked[i].tpsf, ref.ranked[i].tpsf);
        }
      }
    }
  }
}

}  // namespace
}  // namespace scanpower
