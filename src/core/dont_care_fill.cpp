#include "core/dont_care_fill.hpp"

#include <algorithm>
#include <memory>

#include "power/packed_leakage.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace scanpower {

namespace {

/// Scalar reference engine: one 3-valued Simulator pass plus a
/// circuit_leakage_na walk per candidate. Kept as the cross-check /
/// benchmark baseline for the packed engine below.
FillResult fill_scalar(const Netlist& nl, const LeakageModel& model,
                       std::vector<Logic>& pi_pattern,
                       std::vector<Logic>& mux_pattern,
                       const std::vector<bool>& mux_eligible,
                       const FillOptions& opts,
                       const std::vector<std::size_t>& free_pi,
                       const std::vector<std::size_t>& free_mux,
                       FillResult res) {
  Rng rng;
  Simulator sim(nl);

  auto leakage_of = [&](const std::vector<Logic>& pi,
                        const std::vector<Logic>& mux) {
    for (std::size_t k = 0; k < pi.size(); ++k) {
      sim.set_input(nl.inputs()[k], pi[k]);
    }
    for (std::size_t c = 0; c < mux.size(); ++c) {
      // Non-multiplexed cells toggle during shift: X (expected leakage).
      sim.set_state(nl.dffs()[c], mux_eligible[c] ? mux[c] : Logic::X);
    }
    sim.eval_incremental();
    return model.circuit_leakage_na(nl, sim.values());
  };

  if (res.free_inputs == 0) {
    res.best_leakage_na = res.first_leakage_na =
        leakage_of(pi_pattern, mux_pattern);
    return res;
  }

  std::vector<Logic> best_pi = pi_pattern;
  std::vector<Logic> best_mux = mux_pattern;
  double best = 0.0;
  const int trials = opts.minimize_leakage ? std::max(1, opts.trials) : 1;
  std::vector<Logic> cand_pi = pi_pattern;
  std::vector<Logic> cand_mux = mux_pattern;
  for (int t = 0; t < trials; ++t) {
    // Per-64-trial-word seeds: trial t draws from a generator seeded by
    // (seed, t / 64) alone, so trial words are independent and the packed
    // engine can partition them across workers while drawing the exact
    // same stream.
    if (t % 64 == 0) {
      rng.reseed(block_seed(opts.seed, static_cast<std::uint64_t>(t) / 64));
    }
    for (std::size_t i : free_pi) cand_pi[i] = from_bool(rng.next_bool());
    for (std::size_t i : free_mux) cand_mux[i] = from_bool(rng.next_bool());
    const double leak = leakage_of(cand_pi, cand_mux);
    if (t == 0) res.first_leakage_na = leak;
    if (t == 0 || leak < best) {
      best = leak;
      best_pi = cand_pi;
      best_mux = cand_mux;
    }
  }
  res.best_leakage_na = best;
  res.trials = trials;
  pi_pattern = std::move(best_pi);
  mux_pattern = std::move(best_mux);
  return res;
}

/// Packed engine: candidates are bit lanes of 3-valued packed sweeps. The
/// random stream (per trial: free PIs in order, then free mux cells) and
/// the best-candidate selection rule (strict improvement, earliest trial
/// wins ties) are exactly the scalar engine's, and per-lane leakage is
/// bit-identical to circuit_leakage_na, so both engines pick the same
/// fill.
FillResult fill_packed(const Netlist& nl, const LeakageModel& model,
                       std::vector<Logic>& pi_pattern,
                       std::vector<Logic>& mux_pattern,
                       const std::vector<bool>& mux_eligible,
                       const FillOptions& opts,
                       const std::vector<std::size_t>& free_pi,
                       const std::vector<std::size_t>& free_mux,
                       FillResult res) {
  std::unique_ptr<const GateLeakageTables> owned_tables;
  if (opts.tables == nullptr) {
    owned_tables = std::make_unique<GateLeakageTables>(nl, model);
  }
  const GateLeakageTables& tables =
      opts.tables ? *opts.tables : *owned_tables;
  const PackedLeakageEvaluator leval(nl, tables, opts.backend);

  // Free positions in the scalar engine's draw order.
  std::vector<GateId> free_sources;
  free_sources.reserve(free_pi.size() + free_mux.size());
  for (std::size_t i : free_pi) free_sources.push_back(nl.inputs()[i]);
  for (std::size_t i : free_mux) free_sources.push_back(nl.dffs()[i]);
  const std::size_t nfree = free_sources.size();

  const int trials =
      res.free_inputs == 0 ? 1
                           : (opts.minimize_leakage ? std::max(1, opts.trials)
                                                    : 1);
  // Four words per sweep, narrowed to the candidate count: scoring 24
  // trials on a 256-lane block would aggregate leakage for 232 dead lanes.
  // Candidates are drawn per 64-trial word, so the width moves no result.
  int W = 4;
  while (W > 1 &&
         static_cast<std::size_t>(W) * 32 >= static_cast<std::size_t>(trials)) {
    W /= 2;
  }
  const std::size_t lanes = static_cast<std::size_t>(W) * 64;

  // Fixed sources: assigned constants broadcast lane-wide; non-eligible
  // mux cells broadcast X (they toggle during shift).
  auto broadcast_fixed = [&](TernaryBlockSimulator& sim) {
    for (std::size_t k = 0; k < pi_pattern.size(); ++k) {
      sim.set_source_all(nl.inputs()[k], pi_pattern[k]);
    }
    for (std::size_t c = 0; c < mux_pattern.size(); ++c) {
      sim.set_source_all(nl.dffs()[c],
                         mux_eligible[c] ? mux_pattern[c] : Logic::X);
    }
  };

  if (res.free_inputs == 0) {
    TernaryBlockSimulator sim(nl, W, opts.backend);
    std::vector<double> leak(lanes);
    broadcast_fixed(sim);
    sim.eval();
    leval.eval(sim, leak);
    res.best_leakage_na = res.first_leakage_na = leak[0];
    return res;
  }

  const std::size_t total = static_cast<std::size_t>(trials);
  const std::size_t nblocks = (total + lanes - 1) / lanes;
  // Borrow the caller's pool when provided (ScanSession); the sweep is
  // bit-identical for any pool size, so sharing is result-free.
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool_ptr = opts.pool;
  if (pool_ptr == nullptr) {
    owned_pool =
        std::make_unique<ThreadPool>(ThreadPool::resolve_threads(opts.num_threads));
    pool_ptr = owned_pool.get();
  }
  ThreadPool& pool = *pool_ptr;
  const int T = pool.size();

  // Per-worker simulation state; one block of candidates per worker per
  // wave. Trial word k (trials 64k..64k+63) draws from a generator seeded
  // by (opts.seed, k) alone, and block-local winners are merged on the
  // caller thread in ascending block order with a strict '<', so the
  // chosen fill -- the earliest strict minimum, exactly the scalar
  // engine's rule -- is bit-identical for any thread count.
  struct Partial {
    std::vector<PatternWord> cand;
    std::vector<double> leak;
    std::vector<std::uint8_t> bits;  ///< free-source values of the block winner
    double min = 0.0;                ///< block-local minimum leakage
    double first = 0.0;              ///< leak[0]; consumed for block 0 only
  };
  std::vector<TernaryBlockSimulator> sims;
  sims.reserve(static_cast<std::size_t>(T));
  std::vector<Partial> parts(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    sims.emplace_back(nl, W, opts.backend);
    broadcast_fixed(sims.back());
    parts[static_cast<std::size_t>(t)].cand.assign(
        nfree * static_cast<std::size_t>(W), PatternWord{0});
    parts[static_cast<std::size_t>(t)].leak.assign(lanes, 0.0);
    parts[static_cast<std::size_t>(t)].bits.assign(nfree, 0);
  }

  bool have_best = false;
  double best = 0.0;
  std::vector<std::uint8_t> best_bits(nfree, 0);

  ordered_block_sweep(
      pool, nblocks,
      [&](int t, std::size_t b) {
        Partial& part = parts[static_cast<std::size_t>(t)];
        TernaryBlockSimulator& sim = sims[static_cast<std::size_t>(t)];
        const std::size_t base = b * lanes;
        const std::size_t batch = std::min(lanes, total - base);
        // Assemble candidate words lane by lane so the rng stream matches
        // the scalar engine trial-for-trial.
        Rng rng;
        std::fill(part.cand.begin(), part.cand.end(), PatternWord{0});
        for (std::size_t lane = 0; lane < batch; ++lane) {
          if (lane % 64 == 0) {
            rng.reseed(block_seed(opts.seed, (base + lane) / 64));
          }
          const std::size_t w = lane / 64;
          const PatternWord bit = PatternWord{1} << (lane % 64);
          for (std::size_t j = 0; j < nfree; ++j) {
            if (rng.next_bool()) part.cand[j * W + w] |= bit;
          }
        }
        for (std::size_t j = 0; j < nfree; ++j) {
          for (int w = 0; w < W; ++w) {
            sim.set_source_word(free_sources[j], w, part.cand[j * W + w]);
          }
        }
        sim.eval();
        leval.eval(sim, part.leak);
        part.first = part.leak[0];
        // Block-local earliest strict minimum.
        bool have = false;
        for (std::size_t lane = 0; lane < batch; ++lane) {
          if (have && !(part.leak[lane] < part.min)) continue;
          have = true;
          part.min = part.leak[lane];
          const std::size_t w = lane / 64;
          const PatternWord bit = PatternWord{1} << (lane % 64);
          for (std::size_t j = 0; j < nfree; ++j) {
            part.bits[j] = (part.cand[j * W + w] & bit) != 0;
          }
        }
      },
      [&](int t, std::size_t b) {
        const Partial& part = parts[static_cast<std::size_t>(t)];
        if (b == 0) res.first_leakage_na = part.first;
        if (!have_best || part.min < best) {
          have_best = true;
          best = part.min;
          best_bits = part.bits;
        }
      });

  res.best_leakage_na = best;
  res.trials = trials;
  std::size_t j = 0;
  for (std::size_t i : free_pi) pi_pattern[i] = from_bool(best_bits[j++] != 0);
  for (std::size_t i : free_mux) {
    mux_pattern[i] = from_bool(best_bits[j++] != 0);
  }
  return res;
}

}  // namespace

FillResult fill_dont_cares_min_leakage(const Netlist& nl,
                                       const LeakageModel& model,
                                       std::vector<Logic>& pi_pattern,
                                       std::vector<Logic>& mux_pattern,
                                       const std::vector<bool>& mux_eligible,
                                       const FillOptions& opts) {
  SP_CHECK(pi_pattern.size() == nl.inputs().size(),
           "fill: pi_pattern size mismatch");
  SP_CHECK(mux_pattern.size() == nl.dffs().size() &&
               mux_eligible.size() == nl.dffs().size(),
           "fill: mux_pattern size mismatch");

  // Free positions: X PIs and X *eligible* mux cells.
  std::vector<std::size_t> free_pi;
  std::vector<std::size_t> free_mux;
  for (std::size_t i = 0; i < pi_pattern.size(); ++i) {
    if (pi_pattern[i] == Logic::X) free_pi.push_back(i);
  }
  for (std::size_t i = 0; i < mux_pattern.size(); ++i) {
    if (mux_eligible[i] && mux_pattern[i] == Logic::X) free_mux.push_back(i);
  }

  FillResult res;
  res.free_inputs = free_pi.size() + free_mux.size();

  return opts.packed ? fill_packed(nl, model, pi_pattern, mux_pattern,
                                   mux_eligible, opts, free_pi, free_mux, res)
                     : fill_scalar(nl, model, pi_pattern, mux_pattern,
                                   mux_eligible, opts, free_pi, free_mux, res);
}

}  // namespace scanpower
