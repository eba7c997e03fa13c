#include "atpg/tpg.hpp"

#include <algorithm>

#include "atpg/fault_sim.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

namespace scanpower {

TestSet generate_tests(const Netlist& nl, const TpgOptions& opts) {
  Rng rng(opts.seed);
  const std::vector<Fault> faults = collapse_faults(nl);
  FaultSimulator fsim(nl, opts.fault_sim);

  TestSet ts;
  ts.seed = opts.seed;
  ts.total_faults = faults.size();

  std::vector<bool> detected(faults.size(), false);
  std::size_t num_detected = 0;

  // ---- Phase 1: random patterns with fault dropping -------------------
  int dry_batches = 0;
  for (int batch = 0;
       batch < opts.max_random_batches &&
       dry_batches < opts.unproductive_batch_limit &&
       num_detected < faults.size();
       ++batch) {
    std::vector<TestPattern> cand;
    cand.reserve(kTpgBatchPatterns);
    for (std::size_t i = 0; i < kTpgBatchPatterns; ++i) {
      cand.push_back(random_pattern(nl, rng));
    }
    const FaultSimResult res = fsim.run(cand, faults, &detected);
    if (res.num_detected == 0) {
      ++dry_batches;
      continue;
    }
    dry_batches = 0;
    num_detected += res.num_detected;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (res.detected[fi]) detected[fi] = true;
    }
    for (std::size_t p = 0; p < cand.size(); ++p) {
      if (res.new_detects_per_pattern[p] > 0) {
        ts.patterns.push_back(std::move(cand[p]));
      }
    }
  }
  SP_LOG_INFO(strprintf("tpg[%s]: random phase %zu/%zu faults, %zu patterns",
                     nl.name().c_str(), num_detected, faults.size(),
                     ts.patterns.size()));

  // ---- Phase 2: PODEM top-off -----------------------------------------
  // Generated patterns are fault-simulated in batches: collateral
  // dropping within a batch is deferred (a handful of redundant PODEM
  // calls), which is far cheaper than one fault-sim pass per pattern on
  // large fault lists.
  PodemOptions popts;
  popts.backtrack_limit = opts.podem_backtrack_limit;
  Podem podem(nl, popts);
  std::vector<TestPattern> batch;
  auto flush_batch = [&]() {
    if (batch.empty()) return;
    const FaultSimResult res = fsim.run(batch, faults, &detected);
    num_detected += res.num_detected;
    for (std::size_t k = 0; k < faults.size(); ++k) {
      if (res.detected[k]) detected[k] = true;
    }
    for (TestPattern& p : batch) ts.patterns.push_back(std::move(p));
    batch.clear();
  };
  std::uint64_t podem_calls = 0, podem_decisions = 0, podem_backtracks = 0,
                podem_implied_gates = 0;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (detected[fi]) continue;
    const PodemResult pr = podem.generate(faults[fi]);
    ++podem_calls;
    podem_decisions += static_cast<std::uint64_t>(pr.decisions);
    podem_backtracks += static_cast<std::uint64_t>(pr.backtracks);
    podem_implied_gates += pr.implied_gates;
    if (pr.status == PodemStatus::Untestable) {
      ts.untestable_faults++;
      continue;
    }
    if (pr.status == PodemStatus::Aborted) {
      ts.aborted_faults++;
      continue;
    }
    TestPattern pat = pr.pattern;
    pat.random_fill(rng);
    batch.push_back(std::move(pat));
    if (batch.size() == kTpgBatchPatterns) flush_batch();
  }
  flush_batch();
  Telemetry* telem = opts.fault_sim.telemetry;
  SP_TELEM_ADD(telem, 0, CounterId::kPodemCalls, podem_calls);
  SP_TELEM_ADD(telem, 0, CounterId::kPodemDecisions, podem_decisions);
  SP_TELEM_ADD(telem, 0, CounterId::kPodemBacktracks, podem_backtracks);
  SP_TELEM_ADD(telem, 0, CounterId::kPodemUntestable, ts.untestable_faults);
  SP_TELEM_ADD(telem, 0, CounterId::kPodemAborted, ts.aborted_faults);
  SP_TELEM_ADD(telem, 0, CounterId::kPodemImpliedGates, podem_implied_gates);
  SP_LOG_INFO(strprintf(
      "tpg[%s]: after PODEM %zu/%zu faults (%zu untestable, %zu aborted), "
      "%zu patterns",
      nl.name().c_str(), num_detected, faults.size(), ts.untestable_faults,
      ts.aborted_faults, ts.patterns.size()));

  // ---- Phase 3: reverse-order compaction -------------------------------
  if (opts.compact && !ts.patterns.empty()) {
    std::vector<TestPattern> reversed(ts.patterns.rbegin(),
                                      ts.patterns.rend());
    const FaultSimResult res = fsim.run(reversed, faults);
    std::vector<TestPattern> kept;
    for (std::size_t p = 0; p < reversed.size(); ++p) {
      if (res.new_detects_per_pattern[p] > 0) {
        kept.push_back(std::move(reversed[p]));
      }
    }
    ts.patterns = std::move(kept);
  }

  // Final coverage accounting on the compacted set.
  const FaultSimResult final_res = fsim.run(ts.patterns, faults);
  ts.detected_faults = final_res.num_detected;
  SP_LOG_INFO(strprintf("tpg[%s]: final %zu patterns, coverage %.2f%%",
                     nl.name().c_str(), ts.patterns.size(),
                     100.0 * ts.fault_coverage()));
  return ts;
}

}  // namespace scanpower
