#include "compact/compact_diag.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace scanpower {

SignatureDiagnoser::SignatureDiagnoser(const Netlist& nl, DiagnosisOptions opts,
                                       ThreadPool& pool,
                                       const ObservationPoints& points,
                                       ObservationConeCache& cones,
                                       GoodBlockCache& goods)
    : nl_(&nl), opts_(opts), points_(&points), cones_(&cones), goods_(&goods),
      pool_(&pool) {
  SP_CHECK(nl.finalized(), "SignatureDiagnoser requires a finalized netlist");
  opts_.num_threads = pool.size();
  workers_.resize(static_cast<std::size_t>(pool_->size()));
  for (SweepWorker& w : workers_) {
    w.eval.init(nl, opts_.backend);
  }
}

std::vector<std::vector<std::uint32_t>> SignatureDiagnoser::failing_op_sets(
    const SignatureLog& log, const XMaskPlan& plan) const {
  // A failing window names no failing point, so the candidate must lie in
  // the union of every unmasked point's cone for that window. Distinct
  // unmasked sets are deduplicated before intersecting; without X-masking
  // every failing window shares the full point set and the union is built
  // once.
  std::vector<std::vector<std::uint32_t>> op_sets;
  for (std::size_t w = 0; w < log.num_windows(); ++w) {
    if (!log.window_fails(w)) continue;
    std::vector<std::uint32_t> ops;
    for (std::size_t op = 0; op < points_->size(); ++op) {
      if (!plan.masked(op, w)) ops.push_back(static_cast<std::uint32_t>(op));
    }
    op_sets.push_back(std::move(ops));
  }
  std::sort(op_sets.begin(), op_sets.end());
  op_sets.erase(std::unique(op_sets.begin(), op_sets.end()), op_sets.end());
  return op_sets;
}

void SignatureDiagnoser::score_candidates(
    std::span<const TestPattern> patterns, const SignatureLog& log,
    const XMaskPlan& plan, const MisrCompactor& compactor,
    std::vector<CandidateScore>& scores) {
  const GoodBlockCache& goods = *goods_;
  const std::size_t lanes = kSweepLanes;
  const std::size_t nblocks = goods.num_blocks();
  const std::size_t wpp = (patterns.size() + 63) / 64;
  const std::size_t nwin = log.num_windows();
  const int num_workers = pool_->size();

  std::vector<std::uint64_t> obs_diff(nwin);
  std::uint64_t num_failing = 0;
  for (std::size_t w = 0; w < nwin; ++w) {
    obs_diff[w] = log.observed[w] ^ log.expected[w];
    if (obs_diff[w] != 0) ++num_failing;
  }

  // Candidates round-robin across workers: each score slot has exactly
  // one writer, and a candidate's counters depend only on its own full
  // diff, so the ranking is bit-identical for every thread count.
  // Good-machine blocks come from the shared cache, streamed past its cap
  // into the worker's scratch (the values are identical either way).
  pool_->run_on_all([&](int t) {
    SweepWorker& wk = workers_[static_cast<std::size_t>(t)];
    // Each candidate's predicted response diff is collected into `diff`
    // (only rows the cone sweep actually reached are written, tracked in
    // `dirty` so clearing is sparse), compacted into `diff_sigs`, and
    // matched against the log's window signatures.
    std::vector<PatternWord> diff(points_->size() * wpp, 0);
    std::vector<std::uint32_t> dirty;
    std::vector<std::uint8_t> dirty_mark(points_->size(), 0);
    std::vector<std::uint64_t> diff_sigs(nwin, 0);
    for (std::size_t ci = static_cast<std::size_t>(t); ci < scores.size();
         ci += static_cast<std::size_t>(num_workers)) {
      CandidateScore& sc = scores[ci];
      const Fault& f = sc.fault;
      bool any = false;
      for (std::size_t b = 0; b < nblocks; ++b) {
        const std::size_t base = b * lanes;
        const std::size_t batch = std::min(lanes, patterns.size() - base);
        const BlockSimulator& good = goods.block(b, wk.scratch);
        const PackedBlock<kSweepWords> mask =
            lane_validity_mask<kSweepWords>(batch);
        const std::size_t word0 = base / 64;
        const std::size_t nwords = (batch + 63) / 64;
        wk.eval.propagate(
            good, f, mask, points_->observable(),
            [&](GateId gate, const PatternWord* d) {
              for (std::uint32_t op : points_->sink_points(f, gate)) {
                PatternWord* row = diff.data() + op * wpp + word0;
                for (std::size_t w = 0; w < nwords; ++w) row[w] = d[w];
                if (!dirty_mark[op]) {
                  dirty_mark[op] = 1;
                  dirty.push_back(op);
                }
                any = true;
              }
            });
      }
      if (!any) {
        // Unexcited candidate: predicts every window passing.
        sc.tfsp = num_failing;
        continue;
      }
      compactor.compact_rows(diff, points_->size(), patterns.size(), &plan,
                             diff_sigs);
      for (std::size_t w = 0; w < nwin; ++w) {
        const std::uint64_t d = diff_sigs[w];
        if (obs_diff[w] != 0) {
          if (d == obs_diff[w]) {
            ++sc.tfsf;
          } else if (d == 0) {
            ++sc.tfsp;
          } else {
            ++sc.tfsp;  // fails the window, but with the wrong signature:
            ++sc.tpsf;  // unexplained observation AND a misprediction
          }
        } else if (d != 0) {
          ++sc.tpsf;
        }
      }
      for (std::uint32_t op : dirty) {
        PatternWord* row = diff.data() + op * wpp;
        std::fill(row, row + wpp, 0);
        dirty_mark[op] = 0;
      }
      dirty.clear();
    }
  });
}

DiagnosisResult SignatureDiagnoser::diagnose(
    std::span<const TestPattern> patterns, std::span<const Fault> faults,
    const SignatureLog& log, const XMaskPlan& plan,
    std::span<const std::uint64_t> expected) {
  // The log must cover the applied pattern set and be internally
  // consistent before any scoring work is spent on it.
  SP_CHECK(log.num_patterns == patterns.size(),
           "diagnose: signature log covers a different pattern count");
  SP_CHECK(log.num_windows() == log.misr.num_windows(patterns.size()) &&
               log.observed.size() == log.expected.size(),
           "diagnose: malformed signature log");
  // A mismatch between the log's expected signatures and the good machine
  // means the log was recorded for different patterns or a different MISR
  // configuration, which would silently wreck every score.
  SP_CHECK(std::equal(expected.begin(), expected.end(), log.expected.begin(),
                      log.expected.end()),
           "diagnose: signature log's expected signatures do not match the "
           "good machine (wrong pattern set or MISR configuration?)");
  goods_->require_bound_to(patterns);

  Telemetry* const telem = opts_.telemetry;
  DiagnosisResult res;
  std::uint64_t total_us = 0;
  const QueryTally tally(*cones_);
  {
    TraceSpan span_all(telem, "compact_diagnose", 0, CounterId::kCount,
                       &total_us);
    res.num_faults = faults.size();
    res.num_windows = log.num_windows();
    res.num_failing_windows = log.num_failing_windows();
    res.num_failures = res.num_failing_windows;
    res.num_masked = plan.num_masked();

    const MisrCompactor compactor(log.misr);

    std::vector<CandidateScore> scores;
    {
      TraceSpan span(telem, "prune", 0, CounterId::kDiagPruneUs,
                     &res.stats.prune_us);
      scores = prune_by_cone_unions(
          *nl_, *cones_, faults,
          opts_.cone_pruning ? failing_op_sets(log, plan)
                             : std::vector<std::vector<std::uint32_t>>{});
    }
    res.num_candidates = scores.size();

    {
      TraceSpan span(telem, "score", 0, CounterId::kDiagScoreUs,
                     &res.stats.score_us);
      score_candidates(patterns, log, plan, compactor, scores);
    }

    std::sort(scores.begin(), scores.end());
    res.ranked = std::move(scores);
    tally.finish(telem, workers_, res.stats);
  }
  if (telem != nullptr) {
    telem->metrics.add(0, CounterId::kCompactQueries, 1);
    telem->metrics.add(0, CounterId::kCompactCandidates, res.num_candidates);
    telem->metrics.record_hist(HistId::kCompactDiagnoseUs, total_us);
  }
  return res;
}

}  // namespace scanpower
