// Telemetry: metrics registry, phase tracing, and the determinism contract.
//
// Four property groups:
//  1. Registry mechanics -- shard merge, gauges, histogram bucketing,
//     reset, and text/JSON serialization.
//  2. Counter determinism -- semantic and work counters are invariant
//     across num_threads in {1, 4}. `_us` counters and pool counters carry
//     no guarantee and are excluded. PODEM's verdict counters also match
//     generate_tests()' TestSet.
//  3. Exactness -- the registry deltas around a full-response query, a
//     compacted query and a multi-log batch equal the DiagnosisResult::stats
//     fields of those queries (same single measurement feeds both).
//  4. Tracing -- spans nest correctly per shard, the Chrome trace_event
//     export is well-formed JSON, and enabling telemetry never perturbs
//     rankings (byte-identical with a scope attached vs nullptr).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "atpg/fault.hpp"
#include "benchgen/benchgen.hpp"
#include "core/session.hpp"
#include "diag/diagnose.hpp"
#include "diag/response.hpp"
#include "techmap/techmap.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

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

/// Rankings must agree field-for-field (the bit-identical contract).
void expect_same_ranking(const DiagnosisResult& a, const DiagnosisResult& b,
                         const std::string& what) {
  ASSERT_EQ(a.ranked.size(), b.ranked.size()) << what;
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].fault_index, b.ranked[i].fault_index)
        << what << " rank " << i;
    EXPECT_EQ(a.ranked[i].tfsf, b.ranked[i].tfsf) << what << " rank " << i;
    EXPECT_EQ(a.ranked[i].tfsp, b.ranked[i].tfsp) << what << " rank " << i;
    EXPECT_EQ(a.ranked[i].tpsf, b.ranked[i].tpsf) << what << " rank " << i;
    EXPECT_EQ(a.ranked[i].dropped, b.ranked[i].dropped)
        << what << " rank " << i;
  }
}

/// Minimal JSON well-formedness scanner: balanced {}/[] outside strings,
/// with escape handling. Not a parser -- just enough to catch an unclosed
/// object or a raw quote in the trace export.
bool json_balanced(const std::string& s) {
  std::vector<char> stack;
  bool in_str = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_str) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_str = false;
      continue;
    }
    switch (c) {
      case '"': in_str = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_str && stack.empty();
}

// ---------- registry mechanics ----------------------------------------------

TEST(MetricsRegistryTest, ShardsMergeIntoOneSum) {
  MetricsRegistry reg;
  // Same counter from several shards, including out-of-range ones (clamped).
  reg.add(0, CounterId::kDiagQueries, 3);
  reg.add(1, CounterId::kDiagQueries, 4);
  reg.add(63, CounterId::kDiagQueries, 5);
  reg.add(-1, CounterId::kDiagQueries, 1);   // clamps to shard 0
  reg.add(999, CounterId::kDiagQueries, 2);  // clamps to shard 63
  reg.set_gauge(GaugeId::kPoolWorkers, 7);
  reg.record_hist(HistId::kDiagnoseUs, 100);
  const MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.counter(CounterId::kDiagQueries), 15u);
  EXPECT_EQ(s.gauge(GaugeId::kPoolWorkers), 7);
  EXPECT_EQ(s.hist_count(HistId::kDiagnoseUs), 1u);
}

TEST(MetricsRegistryTest, ResetZeroesEverything) {
  MetricsRegistry reg;
  reg.add(2, CounterId::kSweepCalls, 42);
  reg.set_gauge(GaugeId::kGoodBlocksCached, 9);
  reg.record_hist(HistId::kCompactDiagnoseUs, 5);
  reg.reset();
  const MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.counter(CounterId::kSweepCalls), 0u);
  EXPECT_EQ(s.gauge(GaugeId::kGoodBlocksCached), 0);
  EXPECT_EQ(s.hist_count(HistId::kCompactDiagnoseUs), 0u);
}

TEST(MetricsRegistryTest, HistBucketsArePowersOfTwo) {
  // bucket i holds values with bit_width == i: 0 -> 0, 1 -> 1, [2,3] -> 2...
  EXPECT_EQ(MetricsRegistry::hist_bucket(0), 0u);
  EXPECT_EQ(MetricsRegistry::hist_bucket(1), 1u);
  EXPECT_EQ(MetricsRegistry::hist_bucket(2), 2u);
  EXPECT_EQ(MetricsRegistry::hist_bucket(3), 2u);
  EXPECT_EQ(MetricsRegistry::hist_bucket(4), 3u);
  EXPECT_EQ(MetricsRegistry::hist_bucket(1023), 10u);
  EXPECT_EQ(MetricsRegistry::hist_bucket(1024), 11u);
  // The last bucket absorbs everything >= 2^30 us.
  EXPECT_EQ(MetricsRegistry::hist_bucket(~0ull), kNumHistBuckets - 1);
}

TEST(MetricsSnapshotTest, TextAndJsonSerialization) {
  MetricsRegistry reg;
  reg.add(0, CounterId::kDiagQueries, 2);
  reg.add(1, CounterId::kSweepCalls, 10);
  reg.set_gauge(GaugeId::kPoolWorkers, 4);
  reg.record_hist(HistId::kDiagnoseUs, 1000);
  const MetricsSnapshot s = reg.snapshot();

  std::ostringstream text;
  s.write_text(text);
  EXPECT_NE(text.str().find(counter_name(CounterId::kDiagQueries)),
            std::string::npos);
  EXPECT_NE(text.str().find(counter_name(CounterId::kSweepCalls)),
            std::string::npos);
  EXPECT_NE(text.str().find(gauge_name(GaugeId::kPoolWorkers)),
            std::string::npos);
  // Zero-valued counters stay out of the dump.
  EXPECT_EQ(text.str().find(counter_name(CounterId::kXMaskBuilds)),
            std::string::npos);

  std::ostringstream json;
  JsonWriter w(json);
  w.begin_object();
  s.write_json(w);
  w.end_object();
  EXPECT_TRUE(json_balanced(json.str())) << json.str();
  EXPECT_NE(json.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(json.str().find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.str().find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, EveryIdHasAName) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const char* n = counter_name(static_cast<CounterId>(i));
    ASSERT_NE(n, nullptr);
    EXPECT_GT(std::string(n).size(), 0u) << "counter " << i;
  }
  for (std::size_t i = 0; i < kNumGauges; ++i)
    EXPECT_GT(std::string(gauge_name(static_cast<GaugeId>(i))).size(), 0u);
  for (std::size_t i = 0; i < kNumHists; ++i)
    EXPECT_GT(std::string(hist_name(static_cast<HistId>(i))).size(), 0u);
}

// ---------- counter determinism across configurations ------------------------

struct ConfigRun {
  MetricsSnapshot snap;
  DiagnosisResult full;
  DiagnosisResult compact;
};

ConfigRun run_config(const Netlist& nl, const std::vector<TestPattern>& pats,
                     int num_threads) {
  FlowOptions opts;
  opts.diag.num_threads = num_threads;
  opts.tpg.fault_sim.num_threads = num_threads;
  ScanSession session(Netlist(nl), opts);
  session.bind_patterns(pats);
  const Fault defect = session.faults()[session.faults().size() / 3];
  ConfigRun out;
  out.full = session.diagnose(Evidence{session.inject(defect)});
  out.compact = session.diagnose(Evidence{session.inject_compacted(defect)});
  out.snap = session.metrics();
  return out;
}

/// Semantic counters (queries, candidates, cache verdicts).
const CounterId kSemanticCounters[] = {
    CounterId::kDiagQueries,        CounterId::kDiagCandidates,
    CounterId::kDiagDropped,        CounterId::kDiagUnionFallbacks,
    CounterId::kDiagMultiplets,     CounterId::kCompactQueries,
    CounterId::kCompactCandidates,  CounterId::kConeCacheHits,
    CounterId::kConeCacheMisses,    CounterId::kGoodCacheBinds,
    CounterId::kXMaskBuilds,        CounterId::kSessionDiagnoseFull,
    CounterId::kSessionDiagnoseCompact, CounterId::kSessionBatches,
    CounterId::kSessionPatternBinds, CounterId::kSessionPatternBindHits,
    CounterId::kSessionCompactStateHits,
    CounterId::kSessionCompactStateMisses, CounterId::kSessionFlowRuns,
};

/// Work counters (sweeps, blocks, block reads).
const CounterId kWorkCounters[] = {
    CounterId::kSweepCalls,        CounterId::kSweepUnexcited,
    CounterId::kSweepConeGates,    CounterId::kSweepActiveGates,
    CounterId::kSweepAborts,       CounterId::kGoodCacheBuiltBlocks,
    CounterId::kGoodCacheCachedReads, CounterId::kGoodCacheStreamedReads,
};

TEST(TelemetryDeterminismTest, CountersStableAcrossThreads) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0x7e1e);

  const int threads[] = {1, 4};
  std::vector<ConfigRun> runs;
  for (int t : threads) runs.push_back(run_config(nl, pats, t));

  // The engine contract first: rankings bit-identical everywhere.
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_same_ranking(runs[0].full, runs[i].full, "full, config " +
                        std::to_string(i));
    expect_same_ranking(runs[0].compact, runs[i].compact, "compact, config " +
                        std::to_string(i));
  }

  for (const auto& ids : {std::span<const CounterId>(kSemanticCounters),
                          std::span<const CounterId>(kWorkCounters)}) {
    for (const CounterId id : ids) {
      for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[0].snap.counter(id), runs[i].snap.counter(id))
            << counter_name(id) << " differs at T=" << threads[i];
      }
    }
  }
  EXPECT_EQ(runs[0].snap.counter(CounterId::kDiagQueries), 1u);
  EXPECT_EQ(runs[0].snap.counter(CounterId::kCompactQueries), 1u);
  EXPECT_EQ(runs[0].snap.counter(CounterId::kSessionPatternBinds), 1u);
  EXPECT_GT(runs[0].snap.counter(CounterId::kSweepCalls), 0u);
}

// ---------- PODEM counters of generate_tests --------------------------------

/// generate_tests() batches a fixed number of patterns, so the same faults
/// reach PODEM in the same order at every thread count and each of these
/// counters is invariant across configurations.
const CounterId kPodemCounters[] = {
    CounterId::kPodemUntestable, CounterId::kPodemAborted,
    CounterId::kPodemCalls,      CounterId::kPodemDecisions,
    CounterId::kPodemBacktracks, CounterId::kPodemImpliedGates,
    CounterId::kPodemXpathPrunes,
};

/// At the production backtrack limit s344 has no aborts; a short limit
/// fills the aborted histogram too.
TEST(TelemetryPodemTest, CountersMatchTestSetAndStayStableAcrossConfigs) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const int threads[] = {1, 4};
  for (const int limit : {4000, 20}) {
    std::vector<MetricsSnapshot> snaps;
    for (int t : threads) {
      FlowOptions opts;
      opts.tpg.podem_backtrack_limit = limit;
      opts.tpg.fault_sim.num_threads = t;
      ScanSession session(Netlist(nl), opts);
      const TestSet& ts = session.tests();
      const MetricsSnapshot snap = session.metrics();
      const std::string at =
          " at T=" + std::to_string(t) + " limit " + std::to_string(limit);
      // Semantic counters against the TestSet's own accounting.
      EXPECT_EQ(snap.counter(CounterId::kPodemUntestable), ts.untestable_faults)
          << at;
      EXPECT_EQ(snap.counter(CounterId::kPodemAborted), ts.aborted_faults)
          << at;
      EXPECT_GT(snap.counter(CounterId::kPodemCalls),
                ts.untestable_faults + ts.aborted_faults)
          << "some PODEM calls must produce patterns" << at;
      EXPECT_LE(snap.counter(CounterId::kPodemCalls), ts.total_faults) << at;
      EXPECT_GE(snap.counter(CounterId::kPodemDecisions),
                snap.counter(CounterId::kPodemBacktracks))
          << "every backtrack flips an earlier decision" << at;
      EXPECT_GT(snap.counter(CounterId::kPodemImpliedGates), 0u) << at;
      // One latency sample per PODEM call, filed under its verdict.
      const std::uint64_t calls = snap.counter(CounterId::kPodemCalls);
      const std::uint64_t untestable =
          snap.counter(CounterId::kPodemUntestable);
      const std::uint64_t aborted = snap.counter(CounterId::kPodemAborted);
      EXPECT_EQ(snap.hist_count(HistId::kPodemDetectedUs),
                calls - untestable - aborted)
          << at;
      EXPECT_EQ(snap.hist_count(HistId::kPodemUntestableUs), untestable) << at;
      EXPECT_EQ(snap.hist_count(HistId::kPodemAbortedUs), aborted) << at;
      snaps.push_back(snap);
    }
    EXPECT_GT(snaps[0].counter(CounterId::kPodemUntestable), 0u);
    EXPECT_GT(snaps[0].counter(CounterId::kPodemXpathPrunes), 0u);
    EXPECT_EQ(snaps[0].counter(CounterId::kPodemAborted) > 0, limit == 20);
    for (const CounterId id : kPodemCounters) {
      for (std::size_t i = 1; i < snaps.size(); ++i) {
        EXPECT_EQ(snaps[0].counter(id), snaps[i].counter(id))
            << counter_name(id) << " differs at T=" << threads[i];
      }
    }
    for (const HistId id : {HistId::kPodemDetectedUs,
                            HistId::kPodemUntestableUs,
                            HistId::kPodemAbortedUs}) {
      for (std::size_t i = 1; i < snaps.size(); ++i) {
        EXPECT_EQ(snaps[0].hist_count(id), snaps[i].hist_count(id))
            << hist_name(id) << " differs at T=" << threads[i];
      }
    }
  }
}

// ---------- registry <-> DiagnosisResult::stats exactness --------------------

TEST(TelemetryExactnessTest, RegistryDeltasMatchDiagnosisStats) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0xbeef);
  FlowOptions opts;
  opts.diag.num_threads = 4;
  opts.tpg.fault_sim.num_threads = 4;
  ScanSession session(Netlist(nl), opts);
  session.bind_patterns(pats);
  const Fault defect = session.faults()[session.faults().size() / 4];
  const Evidence log{session.inject(defect)};

  const MetricsSnapshot before = session.metrics();
  const DiagnosisResult res = session.diagnose(log);
  const MetricsSnapshot after = session.metrics();
  const auto delta = [&](CounterId id) {
    return after.counter(id) - before.counter(id);
  };

  // One query; the same single measurement feeds the stats field, the
  // registry `_us` counter and (when enabled) the trace span.
  EXPECT_EQ(delta(CounterId::kDiagQueries), 1u);
  EXPECT_EQ(delta(CounterId::kDiagPruneUs), res.stats.prune_us);
  EXPECT_EQ(delta(CounterId::kDiagScoreUs), res.stats.score_us);
  EXPECT_EQ(delta(CounterId::kDiagCoverUs), res.stats.cover_us);
  EXPECT_EQ(delta(CounterId::kSweepCalls), res.stats.sweep_calls);
  EXPECT_EQ(delta(CounterId::kSweepAborts), res.stats.sweep_aborts);
  EXPECT_EQ(delta(CounterId::kConeCacheHits), res.stats.cone_cache_hits);
  EXPECT_EQ(delta(CounterId::kConeCacheMisses), res.stats.cone_cache_misses);
  EXPECT_EQ(delta(CounterId::kDiagCandidates), res.num_candidates);
  EXPECT_EQ(after.hist_count(HistId::kDiagnoseUs) -
                before.hist_count(HistId::kDiagnoseUs),
            1u);
  // Stats populate even without a registry attached, so they are never
  // all-zero on a non-trivial query.
  EXPECT_GT(res.stats.sweep_calls, 0u);

  // A compacted query reports through the same drain: its sweeps, prune
  // and score time land in the registry exactly as on its stats.
  const Evidence sig{session.inject_compacted(defect)};
  const MetricsSnapshot c_before = session.metrics();
  const DiagnosisResult c_res = session.diagnose(sig);
  const MetricsSnapshot c_after = session.metrics();
  const auto c_delta = [&](CounterId id) {
    return c_after.counter(id) - c_before.counter(id);
  };
  EXPECT_EQ(c_delta(CounterId::kCompactQueries), 1u);
  EXPECT_EQ(c_delta(CounterId::kDiagQueries), 0u);
  EXPECT_EQ(c_delta(CounterId::kSweepCalls), c_res.stats.sweep_calls);
  EXPECT_EQ(c_delta(CounterId::kSweepAborts), c_res.stats.sweep_aborts);
  EXPECT_EQ(c_delta(CounterId::kDiagPruneUs), c_res.stats.prune_us);
  EXPECT_EQ(c_delta(CounterId::kDiagScoreUs), c_res.stats.score_us);
  EXPECT_EQ(c_delta(CounterId::kCompactCandidates), c_res.num_candidates);
  EXPECT_EQ(c_after.hist_count(HistId::kCompactDiagnoseUs) -
                c_before.hist_count(HistId::kCompactDiagnoseUs),
            1u);
  EXPECT_GT(c_res.stats.sweep_calls, 0u);

  // A multi-log full-response batch drains each log's worker separately;
  // the per-log stats still sum to the registry deltas.
  std::vector<Evidence> batch;
  const std::size_t n = session.faults().size();
  for (const std::size_t at : {n / 3, n / 2, 2 * n / 3}) {
    batch.push_back(Evidence{session.inject(session.faults()[at])});
  }
  const MetricsSnapshot b_before = session.metrics();
  const std::vector<DiagnosisResult> b_res = session.diagnose_batch(batch);
  const MetricsSnapshot b_after = session.metrics();
  const auto b_delta = [&](CounterId id) {
    return b_after.counter(id) - b_before.counter(id);
  };
  ASSERT_EQ(b_res.size(), batch.size());
  std::uint64_t sweeps = 0, aborts = 0, candidates = 0;
  for (const DiagnosisResult& r : b_res) {
    EXPECT_GT(r.stats.sweep_calls, 0u);
    sweeps += r.stats.sweep_calls;
    aborts += r.stats.sweep_aborts;
    candidates += r.num_candidates;
  }
  EXPECT_EQ(b_delta(CounterId::kDiagQueries), batch.size());
  EXPECT_EQ(b_delta(CounterId::kSweepCalls), sweeps);
  EXPECT_EQ(b_delta(CounterId::kSweepAborts), aborts);
  EXPECT_EQ(b_delta(CounterId::kDiagCandidates), candidates);
}

// ---------- tracing ----------------------------------------------------------

TEST(TraceRecorderTest, SpansNestAndExportIsWellFormed) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 64, 0x77ace);
  ScanSession session(Netlist(nl), FlowOptions{});
  session.telemetry().trace.set_enabled(true);
  session.bind_patterns(pats);
  const Fault defect = session.faults()[session.faults().size() / 3];
  (void)session.diagnose(Evidence{session.inject(defect)});

  const std::vector<TraceEvent> evs = session.telemetry().trace.events();
  ASSERT_GE(evs.size(), 4u);  // session span + diagnose + prune + score

  const auto count = [&](const std::string& name) {
    std::size_t n = 0;
    for (const TraceEvent& e : evs) n += (name == e.name) ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count("session.diagnose_full"), 1u);
  EXPECT_EQ(count("diagnose"), 1u);
  EXPECT_EQ(count("prune"), 1u);
  EXPECT_EQ(count("score"), 1u);

  // Every nested span lies inside some span one level up on its shard.
  for (const TraceEvent& e : evs) {
    if (e.depth == 0) continue;
    bool enclosed = false;
    for (const TraceEvent& outer : evs) {
      if (outer.shard != e.shard || outer.depth != e.depth - 1) continue;
      if (outer.start_us <= e.start_us &&
          e.start_us + e.dur_us <= outer.start_us + outer.dur_us) {
        enclosed = true;
        break;
      }
    }
    EXPECT_TRUE(enclosed) << e.name << " (depth " << e.depth
                          << ") has no enclosing span";
  }

  std::ostringstream os;
  session.telemetry().trace.write_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_TRUE(json_balanced(trace));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\""), std::string::npos);

  session.telemetry().trace.clear();
  EXPECT_TRUE(session.telemetry().trace.events().empty());
}

TEST(TraceRecorderTest, FlowSpansEveryScanPowerEvaluation) {
  ScanSession session(map_to_nand_nor_inv(make_s27()), FlowOptions{});
  session.telemetry().trace.set_enabled(true);
  (void)session.run_flow();
  (void)session.power_report();

  const std::vector<TraceEvent> evs = session.telemetry().trace.events();
  const auto find = [&](const std::string& name) -> const TraceEvent* {
    const TraceEvent* hit = nullptr;
    for (const TraceEvent& e : evs) {
      if (name == e.name) {
        EXPECT_EQ(hit, nullptr) << name << " recorded twice";
        hit = &e;
      }
    }
    return hit;
  };
  const TraceEvent* flow = find("session.run_flow");
  ASSERT_NE(flow, nullptr);
  for (const char* stage : {"atpg.generate_tests", "scan_power.traditional",
                            "scan_power.input_control",
                            "scan_power.proposed"}) {
    const TraceEvent* e = find(stage);
    ASSERT_NE(e, nullptr) << stage;
    EXPECT_GT(e->depth, flow->depth) << stage;
    EXPECT_LE(flow->start_us, e->start_us) << stage;
    EXPECT_LE(e->start_us + e->dur_us, flow->start_us + flow->dur_us)
        << stage;
  }
  const TraceEvent* report = find("scan_power.report");
  ASSERT_NE(report, nullptr);
  EXPECT_GE(report->start_us, flow->start_us + flow->dur_us);
}

TEST(TraceRecorderTest, DisabledRecorderStaysEmpty) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 32, 0x50ff);
  ScanSession session(Netlist(nl), FlowOptions{});
  // Recording is off by default.
  session.bind_patterns(pats);
  const Fault defect = session.faults()[0];
  (void)session.diagnose(Evidence{session.inject(defect)});
  EXPECT_TRUE(session.telemetry().trace.events().empty());
}

// ---------- telemetry never perturbs results ---------------------------------

TEST(TelemetryNeutralityTest, RankingsIdenticalWithAndWithoutScope) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0xacc3);
  const auto faults = collapse_faults(nl);
  ResponseCapture cap(nl);
  const FailureLog log = cap.inject(pats, faults[faults.size() / 3]);
  ASSERT_FALSE(log.failures.empty());

  // A session always installs its own scope, so the engines borrow a
  // context's points and cones, a local pool and a bound cache instead.
  const DesignContext ctx{Netlist(nl)};
  ThreadPool pool(1);
  GoodBlockCache goods;
  goods.bind(ctx.netlist(), pats);

  DiagnosisOptions off;
  off.telemetry = nullptr;
  Diagnoser plain(ctx.netlist(), off, pool, ctx.points(), ctx.cones(), goods);
  const DiagnosisResult r_off = plain.diagnose(pats, faults, log);

  Telemetry telem;
  telem.trace.set_enabled(true);
  DiagnosisOptions on;
  on.telemetry = &telem;
  Diagnoser instrumented(ctx.netlist(), on, pool, ctx.points(), ctx.cones(),
                         goods);
  const DiagnosisResult r_on = instrumented.diagnose(pats, faults, log);

  expect_same_ranking(r_off, r_on, "telemetry on vs off");
  EXPECT_EQ(r_off.num_candidates, r_on.num_candidates);
  // The nullptr-scope run still timed itself into the result stats.
  EXPECT_EQ(r_off.stats.sweep_calls, r_on.stats.sweep_calls);
  EXPECT_GT(telem.metrics.snapshot().counter(CounterId::kDiagQueries), 0u);
  EXPECT_FALSE(telem.trace.events().empty());
}

}  // namespace
}  // namespace scanpower
