#include "compact/compact_diag.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace scanpower {

/// Per-worker mutable state for the parallel candidate sweep. Each
/// candidate's predicted response diff is collected into `diff` (only
/// rows the cone sweep actually reached are written, tracked in `dirty`
/// so clearing is sparse), compacted into `diff_sigs`, and matched
/// against the log's window signatures.
struct SignatureDiagnoser::Worker {
  FaultConeEvaluator eval;
  std::vector<PatternWord> diff;          ///< num_points * words_per_point
  std::vector<std::uint32_t> dirty;       ///< rows written for this candidate
  std::vector<std::uint8_t> dirty_mark;   ///< per row
  std::vector<std::uint64_t> diff_sigs;   ///< per window
  std::unique_ptr<BlockSimulator> stream; ///< streaming good machine (only
                                          ///< when blocks are not cached)
};

SignatureDiagnoser::SignatureDiagnoser(const Netlist& nl, DiagnosisOptions opts,
                                       ThreadPool& pool,
                                       const ObservationPoints& points,
                                       ObservationConeCache& cones,
                                       GoodBlockCache& goods)
    : nl_(&nl), opts_(opts), points_(&points), cones_(&cones), goods_(&goods),
      pool_(&pool) {
  SP_CHECK(nl.finalized(), "SignatureDiagnoser requires a finalized netlist");
  check_block_words("diagnose", opts_.block_words, "block_words");
  opts_.num_threads = pool.size();
  workers_.resize(static_cast<std::size_t>(pool_->size()));
  for (auto& w : workers_) {
    w = std::make_unique<Worker>();
    w->eval.init(nl, opts_.block_words, opts_.backend);
  }
}

SignatureDiagnoser::~SignatureDiagnoser() = default;

void SignatureDiagnoser::ensure_goods(
    std::span<const TestPattern> patterns) const {
  SP_CHECK(goods_->bound_to(patterns, opts_.block_words),
           "diagnose: the shared good-block cache is bound to a different "
           "pattern set (bind the session to these patterns first)");
}

std::vector<std::uint32_t> SignatureDiagnoser::prune_candidates(
    std::span<const Fault> faults, const SignatureLog& log,
    const XMaskPlan& plan) {
  const Netlist& nl = *nl_;
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

  return prune_by_cone_unions(nl, *cones_, faults, op_sets);
}

template <int W>
void SignatureDiagnoser::score_candidates(
    std::span<const TestPattern> patterns, std::span<const Fault> faults,
    std::span<const std::uint32_t> candidates, const SignatureLog& log,
    const XMaskPlan& plan, const MisrCompactor& compactor,
    std::vector<CandidateScore>& scores) {
  const Netlist& nl = *nl_;
  const GoodBlockCache& goods = *goods_;
  const std::size_t lanes = static_cast<std::size_t>(W) * 64;
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
  // diff, so the ranking is bit-identical for every (block width, thread
  // count) configuration. Good-machine blocks come from the shared cache;
  // past its cap each worker streams them through its own simulator (the
  // values are identical either way).
  pool_->run_on_all([&](int t) {
    Worker& wk = *workers_[static_cast<std::size_t>(t)];
    wk.diff.assign(points_->size() * wpp, 0);
    wk.dirty.clear();
    wk.dirty_mark.assign(points_->size(), 0);
    wk.diff_sigs.assign(nwin, 0);
    if (!goods.cached() && !wk.stream) {
      wk.stream = std::make_unique<BlockSimulator>(nl, W, opts_.backend);
    }
    for (std::size_t ci = static_cast<std::size_t>(t); ci < candidates.size();
         ci += static_cast<std::size_t>(num_workers)) {
      CandidateScore& sc = scores[ci];
      const Fault& f = faults[candidates[ci]];
      // A D-branch fault sinks its DFF gate id as the capture branch; a
      // Q-stem fault sinks the same id meaning the Q net (read by
      // downstream points).
      const bool d_branch = f.pin >= 0 && nl.type(f.gate) == GateType::Dff;
      bool any = false;
      for (std::size_t b = 0; b < nblocks; ++b) {
        const std::size_t base = b * lanes;
        const std::size_t batch = std::min(lanes, patterns.size() - base);
        const BlockSimulator* good;
        if (goods.cached()) {
          good = &goods.block(b);
        } else {
          goods.stream(b, *wk.stream);
          good = wk.stream.get();
        }
        const PackedBlock<W> mask = lane_validity_mask<W>(batch);
        const std::size_t word0 = base / 64;
        const std::size_t nwords = (batch + 63) / 64;
        wk.eval.propagate<W>(
            *good, f, mask, points_->observable(),
            [&](GateId gate, const PatternWord* diff) {
              const auto record = [&](std::uint32_t op) {
                PatternWord* row = wk.diff.data() + op * wpp + word0;
                for (std::size_t w = 0; w < nwords; ++w) row[w] = diff[w];
                if (!wk.dirty_mark[op]) {
                  wk.dirty_mark[op] = 1;
                  wk.dirty.push_back(op);
                }
                any = true;
              };
              if (d_branch && gate == f.gate) {
                record(static_cast<std::uint32_t>(points_->point_of_dff(gate)));
              } else {
                for (std::uint32_t op : points_->points_of_gate(gate)) {
                  record(op);
                }
              }
            });
      }
      if (!any) {
        // Unexcited candidate: predicts every window passing.
        sc.tfsp = num_failing;
        continue;
      }
      compactor.compact_rows(wk.diff, points_->size(), patterns.size(), &plan,
                             wk.diff_sigs);
      for (std::size_t w = 0; w < nwin; ++w) {
        const std::uint64_t d = wk.diff_sigs[w];
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
      for (std::uint32_t op : wk.dirty) {
        PatternWord* row = wk.diff.data() + op * wpp;
        std::fill(row, row + wpp, 0);
        wk.dirty_mark[op] = 0;
      }
      wk.dirty.clear();
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
  ensure_goods(patterns);

  Telemetry* const telem = opts_.telemetry;
  DiagnosisResult res;
  std::uint64_t total_us = 0;
  const std::uint64_t cone_h0 = cones_->hits();
  const std::uint64_t cone_m0 = cones_->misses();
  {
    TraceSpan span_all(telem, "compact_diagnose", 0, CounterId::kCount,
                       &total_us);
    res.num_faults = faults.size();
    res.num_windows = log.num_windows();
    res.num_failing_windows = log.num_failing_windows();
    res.num_failures = res.num_failing_windows;
    res.num_masked = plan.num_masked();

    const MisrCompactor compactor(log.misr, opts_.block_words);

    std::vector<std::uint32_t> candidates;
    {
      TraceSpan span(telem, "prune", 0, CounterId::kDiagPruneUs,
                     &res.stats.prune_us);
      if (opts_.cone_pruning) {
        candidates = prune_candidates(faults, log, plan);
      } else {
        candidates.resize(faults.size());
        for (std::size_t fi = 0; fi < faults.size(); ++fi) {
          candidates[fi] = static_cast<std::uint32_t>(fi);
        }
      }
    }
    res.num_candidates = candidates.size();

    std::vector<CandidateScore> scores(candidates.size());
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      scores[ci].fault = faults[candidates[ci]];
      scores[ci].fault_index = candidates[ci];
    }

    {
      TraceSpan span(telem, "score", 0, CounterId::kDiagScoreUs,
                     &res.stats.score_us);
      dispatch_words(opts_.block_words, [&](auto w) {
        score_candidates<decltype(w)::value>(patterns, faults, candidates, log,
                                             plan, compactor, scores);
      });
    }

    std::sort(scores.begin(), scores.end());
    res.ranked = std::move(scores);

    for (std::size_t t = 0; t < workers_.size(); ++t) {
      res.stats.add_sweeps(
          flush_sweep_stats(telem, static_cast<int>(t), workers_[t]->eval));
    }
    res.stats.cone_cache_hits = cones_->hits() - cone_h0;
    res.stats.cone_cache_misses = cones_->misses() - cone_m0;
  }
  if (telem != nullptr) {
    telem->metrics.add(0, CounterId::kCompactQueries, 1);
    telem->metrics.add(0, CounterId::kCompactCandidates, res.num_candidates);
    telem->metrics.record_hist(HistId::kCompactDiagnoseUs, total_us);
  }
  return res;
}

}  // namespace scanpower
