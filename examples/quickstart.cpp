// Quickstart: one ScanSession serving several queries against one design.
//
// A session is the unit of state in this library: constructed once from a
// (netlist, options) pair, it owns the worker pool and caches everything
// expensive (ATPG test set, collapsed fault list, observation cones,
// leakage tables, good-machine pattern blocks), so the second query
// against the same design costs only its own scoring work. Here we
// run the paper's three-way power comparison, then play tester: inject a
// defect, diagnose its full failure log, and diagnose the MISR-compacted
// signature log of the same defect -- both through the single
// session.diagnose(Evidence) entry point.

#include <cstdio>

#include "benchgen/benchgen.hpp"
#include "core/session.hpp"
#include "core/session_pool.hpp"
#include "techmap/techmap.hpp"

using namespace scanpower;

int main() {
  // 1. Get a circuit (synthetic ISCAS89-profile s344; see DESIGN.md), map
  //    it onto the paper's NAND/NOR/INV library, and open a session.
  Netlist mapped = map_to_nand_nor_inv(make_iscas89_like("s344"));
  ScanSession session(std::move(mapped), FlowOptions{});
  const Netlist& nl = session.netlist();

  // 2. The full comparison flow: ATPG, AddMUX, leakage observability,
  //    FindControlledInputPattern, don't-care filling, pin reordering and
  //    scan-shift power simulation.
  const FlowResult r = session.run_flow();

  std::printf("circuit %s*: %s\n", r.circuit.c_str(),
              r.stats.to_string().c_str());
  std::printf("tests: %zu patterns, %.1f%% fault coverage\n", r.num_patterns,
              100.0 * r.fault_coverage);
  std::printf("muxed scan cells: %zu/%zu\n", r.mux_plan.num_multiplexed,
              r.mux_plan.multiplexed.size());
  std::printf("\n%-16s %14s %12s\n", "structure", "dyn (uW/Hz)", "static (uW)");
  auto row = [](const char* name, const ScanPowerResult& p) {
    std::printf("%-16s %14.3e %12.2f\n", name, p.dynamic_per_hz_uw,
                p.static_uw);
  };
  row("traditional", r.traditional);
  row("input control", r.input_control);
  row("proposed", r.proposed);
  std::printf("\nimprovement vs traditional: dynamic %.1f%%, static %.1f%%\n",
              r.dyn_vs_traditional_pct, r.stat_vs_traditional_pct);
  std::printf("improvement vs input ctl  : dynamic %.1f%%, static %.1f%%\n",
              r.dyn_vs_input_control_pct, r.stat_vs_input_control_pct);

  // 3. Diagnosis against the same session: bind the ATPG patterns (free --
  //    run_flow already generated them) and pick a defect to plant.
  session.bind_tests();
  const Fault defect = session.faults()[session.faults().size() / 3];

  // 3a. Full tester observability: per-(pattern, point) failure log.
  const Evidence full_log = session.inject(defect);
  const DiagnosisResult full = session.diagnose(full_log);

  // 3b. Production tester: per-window MISR signatures only. Same entry
  //     point -- diagnose() dispatches on the evidence alternative.
  const Evidence sig_log = session.inject_compacted(defect);
  const DiagnosisResult compacted = session.diagnose(sig_log);

  std::printf("\ninjected %s\n", defect.to_string(nl).c_str());
  std::printf("  full-response log : rank %zu of %zu candidates%s\n",
              full.rank_of(defect), full.num_candidates,
              !full.ranked.empty() && full.ranked[0].exact() ? " (exact)" : "");
  std::printf("  MISR signature log: rank %zu of %zu candidates "
              "(%zu/%zu failing windows)\n",
              compacted.rank_of(defect), compacted.num_candidates,
              compacted.num_failing_windows, compacted.num_windows);

  // 4. What did all of that cost? Every engine the session built reported
  //    into its telemetry scope; metrics() snapshots the counters.
  //    Individual results also carry per-query timings in
  //    DiagnosisResult::stats.
  const MetricsSnapshot m = session.metrics();
  std::printf("\ntelemetry: %llu diagnoses over %llu candidates, "
              "%llu cone sweeps (%llu skipped unexcited), "
              "good-block cache %llu built / %llu reads\n",
              static_cast<unsigned long long>(
                  m.counter(CounterId::kDiagQueries) +
                  m.counter(CounterId::kCompactQueries)),
              static_cast<unsigned long long>(
                  m.counter(CounterId::kDiagCandidates) +
                  m.counter(CounterId::kCompactCandidates)),
              static_cast<unsigned long long>(
                  m.counter(CounterId::kSweepCalls)),
              static_cast<unsigned long long>(
                  m.counter(CounterId::kSweepUnexcited)),
              static_cast<unsigned long long>(
                  m.counter(CounterId::kGoodCacheBuiltBlocks)),
              static_cast<unsigned long long>(
                  m.counter(CounterId::kGoodCacheCachedReads)));
  std::printf("diagnosis timing: prune %llu us, score %llu us\n",
              static_cast<unsigned long long>(full.stats.prune_us),
              static_cast<unsigned long long>(full.stats.score_us));

  // 5. Serving several clients of the same design? Share the design-keyed
  //    layer instead of rebuilding it per session. The session above
  //    built a private DesignContext (netlist, faults, cones, tables); a
  //    SessionPool hands out shared ones keyed by a structural hash
  //    (LRU-evicted past its capacity), and sessions built over one are
  //    cheap -- they reference the context and keep only their own
  //    pattern caches. Results are bit-identical to an isolated session;
  //    see diag_server for the queue-fed multi-client front end.
  SessionPool pool(/*capacity=*/4);
  ScanSession tenant(pool.acquire(nl), session.options());
  tenant.bind_patterns(session.patterns());
  const DiagnosisResult shared = tenant.diagnose(full_log);
  std::printf("\nshared-context tenant agrees: rank %zu of %zu candidates\n",
              shared.rank_of(defect), shared.num_candidates);

  // 6. Remote clients? `diag_server --listen 0` serves the same command
  //    grammar over TCP (ephemeral port printed as "listening <port>"),
  //    answering every command with one JSON line and rejecting evidence
  //    with {"error":"overloaded","retry_after_ms":...} when the queue is
  //    past --max-pending. net::DiagClient (src/net/client.hpp) is the
  //    matching blocking client -- connect/request timeouts plus jittered
  //    exponential backoff on overload -- and wire results are
  //    byte-identical to the in-process diagnose() calls above.
  return 0;
}
