#include "diag/diagnose.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/assert.hpp"

namespace scanpower {

namespace {

/// Top-ranked candidates replayed for the multiplet cover.
constexpr std::size_t kMultipletShortlist = 64;

}  // namespace

std::vector<CandidateScore> prune_by_cone_unions(
    const Netlist& nl, ObservationConeCache& cones,
    std::span<const Fault> faults,
    const std::vector<std::vector<std::uint32_t>>& op_sets) {
  // allowed[g] = 1 iff gate g is in every op set's cone union. (The cone
  // cache owns its DFS scratch; the union uses its own, so a lazy cone
  // build mid-union cannot collide.)
  std::vector<std::uint8_t> allowed(nl.num_gates(), 1);
  std::vector<std::uint8_t> union_mark(nl.num_gates(), 0);
  std::vector<GateId> uni;
  for (const std::vector<std::uint32_t>& ops : op_sets) {
    uni.clear();
    for (std::uint32_t op : ops) {
      for (GateId g : cones.cone(op)) {
        if (!union_mark[g]) {
          union_mark[g] = 1;
          uni.push_back(g);
        }
      }
    }
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      allowed[g] &= union_mark[g];
    }
    for (GateId g : uni) union_mark[g] = 0;
  }

  // A fault's effect enters observation cones at its site gate -- for a
  // D-branch fault that is the capture cell itself, which the capture
  // point's cone includes.
  const auto survives = [&](const Fault& f) { return allowed[f.gate] != 0; };
  std::vector<CandidateScore> slots;
  slots.reserve(static_cast<std::size_t>(
      std::count_if(faults.begin(), faults.end(), survives)));
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (survives(faults[fi])) {
      slots.push_back({.fault = faults[fi],
                       .fault_index = static_cast<std::uint32_t>(fi)});
    }
  }
  return slots;
}

void QueryTally::finish(Telemetry* t, std::span<SweepWorker> workers,
                        DiagnosisStats& st) const {
  for (std::size_t i = 0; i < workers.size(); ++i) {
    st.add_sweeps(flush_sweep_stats(t, static_cast<int>(i), workers[i].eval));
  }
  st.cone_cache_hits = cones_->hits() - hits0_;
  st.cone_cache_misses = cones_->misses() - misses0_;
}

Diagnoser::Diagnoser(const Netlist& nl, DiagnosisOptions opts, ThreadPool& pool,
                     const ObservationPoints& points,
                     ObservationConeCache& cones, GoodBlockCache& goods)
    : nl_(&nl), opts_(opts), points_(&points), cones_(&cones), goods_(&goods),
      pool_(&pool) {
  SP_CHECK(nl.finalized(), "Diagnoser requires a finalized netlist");
  opts_.num_threads = pool.size();
  workers_.resize(static_cast<std::size_t>(pool_->size()));
  for (SweepWorker& w : workers_) {
    w.eval.init(nl, opts_.backend);
  }
}

std::vector<std::vector<std::uint32_t>> Diagnoser::failing_op_sets(
    const FailureLog& log, PruneMode mode) const {
  std::vector<std::vector<std::uint32_t>> op_sets;
  if (mode == PruneMode::kUnion) {
    // Noise-recovery fallback: one set holding every failing point. A
    // candidate survives iff it can reach *some* failing point -- sound
    // for any fault multiplicity and for logs with spurious records.
    std::vector<std::uint32_t> ops;
    for (const Failure& f : log.failures) ops.push_back(f.op);
    std::sort(ops.begin(), ops.end());
    ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
    if (!ops.empty()) op_sets.push_back(std::move(ops));
  } else {
    // Distinct failing-point sets, one per failing pattern (the log is
    // sorted by (pattern, op)). Two patterns failing the same points
    // contribute the same cone union, so dedupe before intersecting.
    for (std::size_t i = 0; i < log.failures.size();) {
      std::size_t j = i;
      std::vector<std::uint32_t> ops;
      while (j < log.failures.size() &&
             log.failures[j].pattern == log.failures[i].pattern) {
        ops.push_back(log.failures[j].op);
        ++j;
      }
      op_sets.push_back(std::move(ops));
      i = j;
    }
    std::sort(op_sets.begin(), op_sets.end());
    op_sets.erase(std::unique(op_sets.begin(), op_sets.end()), op_sets.end());
  }
  return op_sets;
}

Diagnoser::Prepared Diagnoser::prepare(std::span<const TestPattern> patterns,
                                       std::span<const Fault> faults,
                                       const FailureLog& log, PruneMode mode) {
  SP_CHECK(log.num_patterns == patterns.size(),
           "diagnose: failure log covers a different pattern count");
  SP_CHECK(std::is_sorted(log.failures.begin(), log.failures.end()),
           "diagnose: failure log must be sorted (FailureLog::normalize)");
  Prepared p;
  p.log = &log;
  p.res.num_faults = faults.size();

  p.observed = log.to_matrix(points_->size());
  p.total_fail = p.observed.popcount();
  p.res.num_failures = static_cast<std::size_t>(p.total_fail);
  {
    std::vector<std::uint32_t> pats, ops;
    for (const Failure& f : log.failures) {
      pats.push_back(f.pattern);
      ops.push_back(f.op);
    }
    std::sort(pats.begin(), pats.end());
    std::sort(ops.begin(), ops.end());
    p.res.num_failing_patterns = static_cast<std::size_t>(
        std::unique(pats.begin(), pats.end()) - pats.begin());
    p.res.num_failing_points = static_cast<std::size_t>(
        std::unique(ops.begin(), ops.end()) - ops.begin());
  }

  p.scores = prune_by_cone_unions(
      *nl_, *cones_, faults,
      opts_.cone_pruning ? failing_op_sets(log, mode)
                         : std::vector<std::vector<std::uint32_t>>{});
  p.res.num_candidates = p.scores.size();
  return p;
}

void Diagnoser::finalize(Prepared& p) {
  for (CandidateScore& sc : p.scores) {
    if (sc.dropped) {
      // Partial counters depend on where the sweep aborted; canonicalize
      // so rankings stay bit-identical across configurations.
      sc.tfsf = 0;
      sc.tpsf = 0;
      ++p.res.num_dropped;
    }
    sc.tfsp = p.total_fail - sc.tfsf;
  }
  std::sort(p.scores.begin(), p.scores.end());
  p.res.ranked = std::move(p.scores);
}

void Diagnoser::score_candidate_block(FaultConeEvaluator& ev,
                                      CandidateScore& sc,
                                      const BlockSimulator& good,
                                      std::size_t block,
                                      const ResponseMatrix& observed,
                                      bool early_exit, std::uint64_t best) {
  const std::size_t base = block * kSweepLanes;
  const std::size_t batch =
      std::min(kSweepLanes, goods_->patterns().size() - base);
  const PackedBlock<kSweepWords> mask = lane_validity_mask<kSweepWords>(batch);
  const std::size_t word0 = base / 64;
  const std::size_t nwords = (batch + 63) / 64;

  // The drop bound stretches by noise_tolerance: a candidate that would
  // explain the log up to the tolerated number of noisy records must
  // finish scoring, and the saturating add keeps the "no bound yet"
  // sentinel infinite. The stretched test stays sound for the ranking --
  // TPSF only grows, so a dropped candidate's final Hamming distance
  // still provably exceeds the best by more than the tolerance.
  const std::uint64_t tol = opts_.noise_tolerance;
  const std::uint64_t bound =
      best > std::numeric_limits<std::uint64_t>::max() - tol ? best
                                                             : best + tol;
  ev.propagate(
      good, sc.fault, mask, points_->observable(),
      [&](GateId gate, const PatternWord* diff) -> bool {
        for (std::uint32_t op : points_->sink_points(sc.fault, gate)) {
          const PatternWord* obs = observed.row(op) + word0;
          for (std::size_t w = 0; w < nwords; ++w) {
            sc.tfsf += static_cast<std::uint64_t>(
                std::popcount(diff[w] & obs[w]));
            sc.tpsf += static_cast<std::uint64_t>(
                std::popcount(diff[w] & ~obs[w]));
          }
        }
        return !(early_exit && sc.tpsf > bound);
      });
  if (early_exit && sc.tpsf > bound) sc.dropped = true;
}

void Diagnoser::score_candidates(int worker, Prepared& p) {
  const GoodBlockCache& goods = *goods_;
  const bool early_exit = opts_.score_early_exit;
  const bool fan_out = worker == kPool;

  // Candidates are scored in fixed-size rounds, in candidate order; a
  // fanned-out round goes round-robin across workers, so each score slot
  // has exactly one writer. The early-exit bound -- the best Hamming
  // distance among fully scored candidates -- advances only at round
  // boundaries; a candidate whose running TPSF exceeds it can never win
  // (TPSF only grows), so its cone sweep aborts and its remaining blocks
  // are skipped. Both the bound and the abort test depend only on
  // per-candidate totals, never on block partitioning, scheduling or
  // which worker scores a round, so the dropped set is bit-identical
  // across thread counts and between the fanned-out and one-worker paths.
  const std::size_t round_size =
      early_exit ? 64 : std::max<std::size_t>(p.scores.size(), 1);
  const std::size_t stride =
      fan_out ? static_cast<std::size_t>(pool_->size()) : 1;
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  // Each round's good blocks are fetched once, by the thread that runs the
  // round (the caller when fanning out).
  SweepWorker& home = workers_[static_cast<std::size_t>(fan_out ? 0 : worker)];

  for (std::size_t r0 = 0; r0 < p.scores.size(); r0 += round_size) {
    const std::size_t r1 = std::min(r0 + round_size, p.scores.size());
    for (std::size_t b = 0; b < goods.num_blocks(); ++b) {
      const BlockSimulator& good = goods.block(b, home.scratch);
      const auto score_slice = [&](FaultConeEvaluator& ev, std::size_t first) {
        for (std::size_t ci = r0 + first; ci < r1; ci += stride) {
          CandidateScore& sc = p.scores[ci];
          if (sc.dropped) continue;
          score_candidate_block(ev, sc, good, b, p.observed, early_exit, best);
        }
      };
      if (fan_out) {
        pool_->run_on_all([&](int t) {
          score_slice(workers_[static_cast<std::size_t>(t)].eval,
                      static_cast<std::size_t>(t));
        });
      } else {
        score_slice(home.eval, 0);
      }
    }
    for (std::size_t ci = r0; ci < r1; ++ci) {
      if (p.scores[ci].dropped) continue;
      best = std::min(best, p.total_fail - p.scores[ci].tfsf +
                                p.scores[ci].tpsf);
    }
  }
}

void Diagnoser::recover_noise(int worker,
                              std::span<const TestPattern> patterns,
                              std::span<const Fault> faults, Prepared& p) {
  if (!opts_.multiplets || p.total_fail == 0) return;
  if (!p.res.ranked.empty() && !p.res.ranked.front().dropped &&
      p.res.ranked.front().tfsp <= opts_.noise_tolerance) {
    return;  // a single candidate explains the log within tolerance
  }
  if (opts_.cone_pruning) {
    // Union-pruning fallback. The kUnion back-trace only touches cones
    // the kIntersect pass already cached, so in the batch fan-out this is
    // a pure cache read and stays race-free across workers.
    Prepared u = prepare(patterns, faults, *p.log, PruneMode::kUnion);
    if (u.scores.size() != p.scores.size()) {
      // The union candidate set is a strict superset -- rescore over it.
      score_candidates(worker, u);
      finalize(u);
      u.res.union_fallback = true;
      // The rescored result replaces the original; carry the query's
      // accumulated stats across (the rescore time itself lands in
      // cover_us via the caller's span).
      u.res.stats = p.res.stats;
      p = std::move(u);
    }
  }
  build_multiplets(worker, p);
}

void Diagnoser::build_multiplets(int worker, Prepared& p) {
  DiagnosisResult& res = p.res;
  res.multiplets.clear();
  if (res.ranked.empty() || p.total_fail == 0) return;

  const GoodBlockCache& goods = *goods_;
  const std::size_t wpp = p.observed.words_per_point();
  constexpr std::uint32_t kNoFop = static_cast<std::uint32_t>(-1);

  // Failing-pattern lane mask and a dense index over failing points.
  std::vector<PatternWord> fail_mask(wpp, 0);
  std::vector<std::uint32_t> fops;
  std::vector<std::uint32_t> fop_dense(points_->size(), kNoFop);
  for (const Failure& f : p.log->failures) {
    fail_mask[f.pattern / 64] |= PatternWord{1} << (f.pattern % 64);
    if (fop_dense[f.op] == kNoFop) {
      fop_dense[f.op] = static_cast<std::uint32_t>(fops.size());
      fops.push_back(f.op);
    }
  }

  // Shortlist: the top non-dropped candidates.
  std::size_t shortlist = 0;
  while (shortlist < res.ranked.size() &&
         shortlist < kMultipletShortlist &&
         !res.ranked[shortlist].dropped) {
    ++shortlist;
  }
  if (shortlist == 0) return;

  SweepWorker& wk =
      workers_[static_cast<std::size_t>(worker == kPool ? 0 : worker)];

  // Per-candidate predictions: `preds[k]` holds the candidate's predicted
  // failure lanes at every observed failing point, `offm[k]` the pattern
  // lanes where it predicts a failure at a never-failing point. A suspect
  // set explains a failing pattern when the UNION of its members'
  // predictions matches the observed behaviour at every observation
  // point. Union beats per-candidate exact cover on interaction patterns
  // -- ones where several faults fail together and no single candidate
  // reproduces the combined print -- while staying pure lane arithmetic,
  // so the emitted sets are as bit-identical across configurations as
  // the ranking itself.
  std::vector<std::vector<PatternWord>> preds(shortlist);
  std::vector<std::vector<PatternWord>> offm(shortlist);
  for (std::size_t k = 0; k < shortlist; ++k) {
    const Fault& f = res.ranked[k].fault;
    preds[k].assign(fops.size() * wpp, PatternWord{0});
    offm[k].assign(wpp, PatternWord{0});
    PatternWord* pred = preds[k].data();
    PatternWord* mismatch = offm[k].data();
    for (std::size_t b = 0; b < goods.num_blocks(); ++b) {
      const BlockSimulator& good = goods.block(b, wk.scratch);
      const std::size_t base = b * kSweepLanes;
      const std::size_t batch =
          std::min(kSweepLanes, goods.patterns().size() - base);
      const PackedBlock<kSweepWords> mask =
          lane_validity_mask<kSweepWords>(batch);
      const std::size_t word0 = base / 64;
      const std::size_t nwords = (batch + 63) / 64;
      wk.eval.propagate(
          good, f, mask, points_->observable(),
          [&](GateId gate, const PatternWord* diff) {
            for (std::uint32_t op : points_->sink_points(f, gate)) {
              const std::uint32_t di = fop_dense[op];
              if (di != kNoFop) {
                PatternWord* row = pred + di * wpp + word0;
                for (std::size_t w = 0; w < nwords; ++w) row[w] |= diff[w];
              } else {
                for (std::size_t w = 0; w < nwords; ++w) {
                  mismatch[word0 + w] |= diff[w];
                }
              }
            }
          });
    }
  }

  // Coverage of a suspect set: failing patterns where the union of the
  // members' predictions equals the observed print at every point.
  std::vector<PatternWord> mism(wpp);
  const auto coverage = [&](const std::vector<std::size_t>& ks,
                            std::vector<PatternWord>& out) {
    std::fill(mism.begin(), mism.end(), PatternWord{0});
    for (std::size_t k : ks) {
      for (std::size_t w = 0; w < wpp; ++w) mism[w] |= offm[k][w];
    }
    for (std::size_t i = 0; i < fops.size(); ++i) {
      const PatternWord* obs = p.observed.row(fops[i]);
      for (std::size_t w = 0; w < wpp; ++w) {
        PatternWord un = 0;
        for (std::size_t k : ks) un |= preds[k][i * wpp + w];
        mism[w] |= un ^ obs[w];
      }
    }
    out.resize(wpp);
    for (std::size_t w = 0; w < wpp; ++w) out[w] = fail_mask[w] & ~mism[w];
  };
  const auto popcnt = [](const std::vector<PatternWord>& v) {
    std::size_t n = 0;
    for (PatternWord w : v) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  };

  // Greedy cover, one candidate multiplet per seed: start from each of
  // the top-ranked candidates and repeatedly add the shortlist member
  // whose union-coverage with the set explains the most failing patterns
  // (strict improvement only; first-ranked wins ties). Purely arithmetic
  // over lane masks, so the emitted sets are as bit-identical across
  // configurations as the ranking itself.
  const std::size_t seeds = std::min(opts_.max_multiplets, shortlist);
  std::vector<SuspectSet> sets;
  std::vector<std::vector<std::uint32_t>> set_keys;
  std::vector<PatternWord> covered(wpp);
  std::vector<PatternWord> trial_cov(wpp);
  std::vector<std::size_t> trial;
  for (std::size_t s = 0; s < seeds; ++s) {
    std::vector<std::size_t> ks{s};
    coverage(ks, covered);
    std::size_t cur = popcnt(covered);
    while (ks.size() < opts_.max_multiplet_size) {
      std::size_t best_k = shortlist;
      std::size_t best_cov = cur;
      for (std::size_t k = 0; k < shortlist; ++k) {
        if (std::find(ks.begin(), ks.end(), k) != ks.end()) continue;
        trial = ks;
        trial.push_back(k);
        coverage(trial, trial_cov);
        const std::size_t c = popcnt(trial_cov);
        if (c > best_cov) {
          best_cov = c;
          best_k = k;
        }
      }
      if (best_k == shortlist) break;  // nothing improves coverage
      ks.push_back(best_k);
      cur = best_cov;
      coverage(ks, covered);
    }
    std::vector<std::uint32_t> key;
    for (std::size_t k : ks) key.push_back(res.ranked[k].fault_index);
    std::sort(key.begin(), key.end());
    if (std::find(set_keys.begin(), set_keys.end(), key) != set_keys.end()) {
      continue;  // same set reached from another seed
    }
    SuspectSet ss;
    for (std::size_t k : ks) ss.members.push_back(res.ranked[k]);
    ss.covered = popcnt(covered);
    ss.uncovered = res.num_failing_patterns - ss.covered;
    sets.push_back(std::move(ss));
    set_keys.push_back(std::move(key));
  }

  // Rank: most failing patterns explained, then smallest set, then best
  // members (lowest summed Hamming distance), then lexicographic fault
  // indices as the deterministic tie-break.
  const auto sum_hamming = [](const SuspectSet& ss) {
    std::uint64_t h = 0;
    for (const CandidateScore& m : ss.members) h += m.hamming();
    return h;
  };
  std::vector<std::size_t> order(sets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (sets[a].covered != sets[b].covered) {
      return sets[a].covered > sets[b].covered;
    }
    if (sets[a].members.size() != sets[b].members.size()) {
      return sets[a].members.size() < sets[b].members.size();
    }
    const std::uint64_t ha = sum_hamming(sets[a]);
    const std::uint64_t hb = sum_hamming(sets[b]);
    if (ha != hb) return ha < hb;
    return set_keys[a] < set_keys[b];
  });
  res.multiplets.reserve(order.size());
  for (std::size_t i : order) res.multiplets.push_back(std::move(sets[i]));
}

namespace {

/// Adds one full-response query's semantic counters to the registry.
void report_query(Telemetry* t, const DiagnosisResult& r) {
  if (t == nullptr) return;
  t->metrics.add(0, CounterId::kDiagQueries, 1);
  t->metrics.add(0, CounterId::kDiagCandidates, r.num_candidates);
  t->metrics.add(0, CounterId::kDiagDropped, r.num_dropped);
  if (r.union_fallback) t->metrics.add(0, CounterId::kDiagUnionFallbacks, 1);
  t->metrics.add(0, CounterId::kDiagMultiplets, r.multiplets.size());
}

}  // namespace

DiagnosisResult Diagnoser::diagnose(std::span<const TestPattern> patterns,
                                    std::span<const Fault> faults,
                                    const FailureLog& log) {
  Telemetry* const telem = opts_.telemetry;
  DiagnosisResult out;
  std::uint64_t total_us = 0;
  const QueryTally tally(*cones_);
  {
    TraceSpan span_all(telem, "diagnose", 0, CounterId::kCount, &total_us);
    // Validate + prune before the good-block check, so a malformed log
    // reports its own error first.
    Prepared p;
    {
      TraceSpan span(telem, "prune", 0, CounterId::kDiagPruneUs,
                     &p.res.stats.prune_us);
      p = prepare(patterns, faults, log, PruneMode::kIntersect);
    }
    goods_->require_bound_to(patterns);
    {
      TraceSpan span(telem, "score", 0, CounterId::kDiagScoreUs,
                     &p.res.stats.score_us);
      score_candidates(kPool, p);
    }
    finalize(p);
    {
      TraceSpan span(telem, "cover", 0, CounterId::kDiagCoverUs,
                     &p.res.stats.cover_us);
      recover_noise(kPool, patterns, faults, p);
    }
    // Serial wrt the cone cache (scoring never touches it), so the cone
    // deltas are exactly this query's lookups.
    tally.finish(telem, workers_, p.res.stats);
    out = std::move(p.res);
  }
  report_query(telem, out);
  if (telem != nullptr) {
    telem->metrics.record_hist(HistId::kDiagnoseUs, total_us);
  }
  return out;
}

std::vector<DiagnosisResult> Diagnoser::diagnose_batch(
    std::span<const TestPattern> patterns, std::span<const Fault> faults,
    std::span<const FailureLog* const> logs) {
  // A single log gains nothing from the per-worker fan-out (it would pin
  // the whole batch to one worker); the pool-parallel candidate scoring
  // of diagnose() is bit-identical and uses every worker.
  if (logs.size() == 1) {
    std::vector<DiagnosisResult> one;
    one.push_back(diagnose(patterns, faults, *logs[0]));
    return one;
  }

  Telemetry* const telem = opts_.telemetry;
  TraceSpan span_batch(telem, "diagnose_batch", 0);

  // Serial phase: validation, observed matrices and cone pruning (the
  // cone cache builds lazily, so it must not be touched concurrently).
  // This pass also caches every failing point's cone, which makes the
  // workers' noise-recovery fallback (a kUnion re-prune over the same
  // points) a pure read of the cache.
  std::vector<Prepared> prepared;
  prepared.reserve(logs.size());
  for (const FailureLog* log : logs) {
    const QueryTally tally(*cones_);
    std::uint64_t prune_us = 0;
    {
      TraceSpan span(telem, "prune", 0, CounterId::kDiagPruneUs, &prune_us);
      prepared.push_back(
          prepare(patterns, faults, *log, PruneMode::kIntersect));
    }
    DiagnosisStats& st = prepared.back().res.stats;
    st.prune_us = prune_us;
    tally.finish(telem, {}, st);
  }
  goods_->require_bound_to(patterns);

  // Parallel phase: logs round-robin across the pool, each scored,
  // finalized and noise-recovered wholly within one worker from that
  // worker's private evaluator/scratch.
  const int num_workers = pool_->size();
  pool_->run_on_all([&](int t) {
    for (std::size_t li = static_cast<std::size_t>(t); li < prepared.size();
         li += static_cast<std::size_t>(num_workers)) {
      Prepared& p = prepared[li];
      {
        TraceSpan span(telem, "score", t, CounterId::kDiagScoreUs,
                       &p.res.stats.score_us);
        score_candidates(t, p);
      }
      finalize(p);
      {
        TraceSpan span(telem, "cover", t, CounterId::kDiagCoverUs,
                       &p.res.stats.cover_us);
        recover_noise(t, patterns, faults, p);
      }
      // This log ran wholly in worker t, so its evaluator's tallies are
      // exactly this log's sweeps.
      p.res.stats.add_sweeps(flush_sweep_stats(
          telem, t, workers_[static_cast<std::size_t>(t)].eval));
    }
  });

  std::vector<DiagnosisResult> results;
  results.reserve(prepared.size());
  for (Prepared& p : prepared) {
    report_query(telem, p.res);
    results.push_back(std::move(p.res));
  }
  return results;
}

bool SuspectSet::contains(const Fault& f) const {
  for (const CandidateScore& m : members) {
    if (m.fault == f) return true;
  }
  return false;
}

std::size_t DiagnosisResult::rank_of(const Fault& f) const {
  std::size_t at = ranked.size();
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].fault == f) {
      at = i;
      break;
    }
  }
  if (at == ranked.size()) return 0;
  // Competition rank: candidates with equal (hamming, tfsf) -- and hence
  // equal counter triples -- are indistinguishable and share a rank.
  // Dropped candidates form their own trailing class (their scoring was
  // cut short, so only "cannot win" is known about them).
  std::size_t rank = 1;
  for (std::size_t i = 0; i < at; ++i) {
    if (ranked[i].hamming() != ranked[at].hamming() ||
        ranked[i].tfsf != ranked[at].tfsf ||
        ranked[i].dropped != ranked[at].dropped) {
      ++rank;
    }
  }
  return rank;
}

}  // namespace scanpower
