#include "core/find_pattern.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "atpg/podem.hpp"
#include "power/packed_leakage.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace scanpower {

namespace {

/// Gate categories for transition propagation ("Update TNS, TGS"):
/// gates without a controlling value always pass transitions.
bool always_propagates(GateType t) {
  switch (t) {
    case GateType::Buf:
    case GateType::Not:
    case GateType::Xor:
    case GateType::Xnor:
    case GateType::Mux:  // conservative: a toggling input can reach out
      return true;
    default:
      return false;
  }
}

}  // namespace

FindPatternResult find_controlled_input_pattern(const Netlist& nl,
                                                const MuxPlan& mux_plan,
                                                const CapacitanceModel& caps,
                                                const FindPatternOptions& opts) {
  SP_CHECK(nl.finalized(),
           "find_controlled_input_pattern requires a finalized netlist");
  SP_CHECK(mux_plan.multiplexed.size() == nl.dffs().size(),
           "find_controlled_input_pattern: plan/netlist mismatch");

  // Controlled inputs: PIs (optionally) + multiplexed pseudo-inputs.
  std::vector<bool> controllable(nl.num_gates(), false);
  if (opts.control_primary_inputs) {
    for (GateId pi : nl.inputs()) controllable[pi] = true;
  }
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    if (mux_plan.multiplexed[i]) controllable[nl.dffs()[i]] = true;
  }

  // Directive: leakage observability when provided (the paper), depth
  // otherwise (the undirected baseline, PodemOptions' default). Justify()
  // is PODEM's justify() with the controlled inputs as decision points.
  std::optional<ObservabilityDirective> obs_directive;
  PodemOptions popts;
  if (opts.observability) {
    SP_CHECK(opts.observability->size() == nl.num_gates(),
             "find_controlled_input_pattern: observability size mismatch");
    popts.directive = &obs_directive.emplace(*opts.observability);
  }
  Podem justifier(nl, popts, std::move(controllable));

  const std::vector<double> loads = caps.load_vector(nl);

  FindPatternResult res;
  res.transition_nodes.assign(nl.num_gates(), false);

  // TGS as an ordered set keyed by (-load, id): largest output capacitance
  // first, deterministic ties.
  struct TgsKey {
    double neg_load;
    GateId id;
    bool operator<(const TgsKey& o) const {
      return neg_load != o.neg_load ? neg_load < o.neg_load : id < o.id;
    }
  };
  std::set<TgsKey> tgs;
  std::vector<bool> in_tgs(nl.num_gates(), false);
  std::vector<bool> tgs_done(nl.num_gates(), false);

  auto tgs_insert = [&](GateId g) {
    if (in_tgs[g] || tgs_done[g] || res.transition_nodes[g]) return;
    in_tgs[g] = true;
    tgs.insert({-loads[g], g});
  };
  auto tgs_erase = [&](GateId g) {
    if (!in_tgs[g]) return;
    in_tgs[g] = false;
    tgs.erase({-loads[g], g});
  };

  // "Update TNS, TGS": propagate transition marks from a worklist of newly
  // transitioning lines; gates with open side inputs become TGS members.
  std::vector<GateId> worklist;
  auto mark_transition = [&](GateId g) {
    if (res.transition_nodes[g]) return;
    res.transition_nodes[g] = true;
    tgs_erase(g);  // a transitioning line is no longer a blocking site
    worklist.push_back(g);
  };

  auto update = [&]() {
    while (!worklist.empty()) {
      const GateId tn = worklist.back();
      worklist.pop_back();
      for (GateId target : nl.fanouts(tn)) {
        const GateType t = nl.type(target);
        if (t == GateType::Dff) continue;  // D pin: no further propagation
        if (res.transition_nodes[target] || tgs_done[target]) continue;
        if (always_propagates(t)) {
          mark_transition(target);
          continue;
        }
        const auto cv = controlling_value(t);
        SP_ASSERT(cv.has_value(), "unexpected gate type in update");
        // A settled controlling value on any input blocks the transition.
        bool blocked = false;
        bool has_open = false;  // X side input (potential blocking site)
        for (GateId f : nl.fanins(target)) {
          if (res.transition_nodes[f]) continue;  // transitioning input
          const Logic v = justifier.value(f);
          if (v == from_bool(*cv)) {
            blocked = true;
            break;
          }
          if (v == Logic::X) has_open = true;
        }
        if (blocked) continue;
        if (!has_open) {
          // Every side input settled non-controlling: transitions pass.
          mark_transition(target);
        } else {
          tgs_insert(target);
        }
      }
    }
  };

  // Step 1: initialize TNS with the non-multiplexed pseudo-inputs (and,
  // when PIs are not controlled, the primary inputs as well -- they hold
  // arbitrary values across the session in that configuration).
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    if (!mux_plan.multiplexed[i]) mark_transition(nl.dffs()[i]);
  }
  if (!opts.control_primary_inputs) {
    for (GateId pi : nl.inputs()) mark_transition(pi);
  }
  // Step 2: initial update.
  update();

  // Step 3: main loop.
  while (!tgs.empty()) {
    const GateId mc_tg = tgs.begin()->id;
    tgs_erase(mc_tg);
    tgs_done[mc_tg] = true;
    if (res.transition_nodes[mc_tg]) continue;  // resolved meanwhile

    const GateType t = nl.type(mc_tg);
    const auto cv = controlling_value(t);
    SP_ASSERT(cv.has_value(), "TGS member without controlling value");

    // Re-examine: commitments made for earlier gates may already settle
    // this one.
    bool blocked = false;
    std::vector<GateId> candidates;
    for (GateId f : nl.fanins(mc_tg)) {
      if (res.transition_nodes[f]) continue;
      const Logic v = justifier.value(f);
      if (v == from_bool(*cv)) {
        blocked = true;
        break;
      }
      if (v == Logic::X && justifier.can_control(f)) candidates.push_back(f);
    }
    if (blocked) {
      ++res.gates_blocked;
      continue;
    }

    // Candidate order: by leakage observability for the controlling value
    // ("If there is more than one option, select based on leakage
    // observability") -- cv == 1 prefers minimum observability, cv == 0
    // maximum; without observability, by position (first don't-care
    // input).
    if (opts.observability && candidates.size() > 1) {
      const auto& obs = *opts.observability;
      std::stable_sort(candidates.begin(), candidates.end(),
                       [&](GateId a, GateId b) {
                         return *cv ? obs[a] < obs[b] : obs[a] > obs[b];
                       });
    }
    for (GateId cand : candidates) {
      if (justifier.justify(cand, *cv, opts.justify_backtrack_limit)) {
        blocked = true;
        break;
      }
    }

    if (blocked) {
      ++res.gates_blocked;
      // The justification may have settled other lines; gates waiting in
      // TGS re-check themselves when popped, and newly settled controlling
      // values can only help. Nothing to re-propagate: a blocked gate's
      // output is a settled constant.
      continue;
    }
    ++res.gates_propagated;
    // Blocking failed: the transition escapes through mc_tg.
    mark_transition(mc_tg);
    update();
  }

  // Step 4: save the assigned values on the controlled inputs.
  res.pi_pattern.reserve(nl.inputs().size());
  for (GateId pi : nl.inputs()) {
    res.pi_pattern.push_back(opts.control_primary_inputs
                                 ? justifier.assignment()[pi]
                                 : Logic::X);
  }
  res.mux_pattern.reserve(nl.dffs().size());
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    res.mux_pattern.push_back(mux_plan.multiplexed[i]
                                  ? justifier.assignment()[nl.dffs()[i]]
                                  : Logic::X);
  }
  res.implied_values = justifier.values();

  // Final transition analysis: commitments made late in the main loop can
  // settle controlling values on gates that were already marked as
  // propagating, so the worklist marks are conservative. Recompute the
  // transition set as a fixpoint over the *final* assignment.
  {
    std::fill(res.transition_nodes.begin(), res.transition_nodes.end(), false);
    std::vector<GateId> work;
    auto mark = [&](GateId g) {
      if (!res.transition_nodes[g]) {
        res.transition_nodes[g] = true;
        work.push_back(g);
      }
    };
    for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
      if (!mux_plan.multiplexed[i]) mark(nl.dffs()[i]);
    }
    if (!opts.control_primary_inputs) {
      for (GateId pi : nl.inputs()) mark(pi);
    }
    while (!work.empty()) {
      const GateId tn = work.back();
      work.pop_back();
      for (GateId target : nl.fanouts(tn)) {
        const GateType t = nl.type(target);
        if (t == GateType::Dff) continue;
        if (res.transition_nodes[target]) continue;
        if (always_propagates(t)) {
          mark(target);
          continue;
        }
        const auto cv = controlling_value(t);
        bool blocked = false;
        for (GateId f : nl.fanins(target)) {
          if (res.transition_nodes[f]) continue;
          if (justifier.value(f) == from_bool(*cv)) {
            blocked = true;
            break;
          }
        }
        if (!blocked) mark(target);
      }
    }
  }
  res.transition_lines = static_cast<std::size_t>(
      std::count(res.transition_nodes.begin(), res.transition_nodes.end(), true));
  SP_LOG_INFO(strprintf(
      "find_pattern[%s]: %zu blocked, %zu propagated, %zu transition lines",
      nl.name().c_str(), res.gates_blocked, res.gates_propagated,
      res.transition_lines));
  return res;
}

MinLeakageSearchResult min_leakage_vector_search(
    const Netlist& nl, const LeakageModel& model,
    const MinLeakageSearchOptions& opts) {
  SP_CHECK(nl.finalized(),
           "min_leakage_vector_search requires a finalized netlist");
  SP_CHECK(opts.sweeps >= 1, "min_leakage_vector_search: need >= 1 sweep");

  constexpr int W = 4;  // 256 vectors per sweep
  const std::size_t lanes = static_cast<std::size_t>(W) * 64;
  std::vector<GateId> sources;
  sources.reserve(nl.inputs().size() + nl.dffs().size());
  for (GateId pi : nl.inputs()) sources.push_back(pi);
  for (GateId ff : nl.dffs()) sources.push_back(ff);
  const std::size_t n_src = sources.size();

  const GateLeakageTables tables(nl, model);
  const PackedLeakageEvaluator leval(nl, tables, opts.backend);
  const int T = ThreadPool::resolve_threads(opts.num_threads);
  ThreadPool pool(T);

  std::vector<BlockSimulator> sims;
  std::vector<std::vector<double>> leak_buf(static_cast<std::size_t>(T));
  sims.reserve(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    sims.emplace_back(nl, W, opts.backend);
    leak_buf[static_cast<std::size_t>(t)].resize(lanes);
  }

  MinLeakageSearchResult res;

  // ---- random-restart stage --------------------------------------------
  // Sweep s draws from a generator seeded by (opts.seed, s) alone; sweep
  // partials merge in ascending sweep order with strict improvement
  // (ordered_block_sweep), so the winner is independent of the thread
  // count.
  struct SweepBest {
    double leak = 0.0;
    std::vector<std::uint8_t> bits;
  };
  std::vector<SweepBest> parts(static_cast<std::size_t>(T));
  for (SweepBest& p : parts) p.bits.resize(n_src);

  double best = 0.0;
  std::vector<std::uint8_t> best_bits(n_src, 0);
  bool have_best = false;

  const std::size_t sweeps = static_cast<std::size_t>(opts.sweeps);
  ordered_block_sweep(
      pool, sweeps,
      [&](int t, std::size_t s) {
        SweepBest& part = parts[static_cast<std::size_t>(t)];
        BlockSimulator& sim = sims[static_cast<std::size_t>(t)];
        Rng rng(block_seed(opts.seed, s));
        for (GateId src : sources) {
          for (int w = 0; w < W; ++w) {
            sim.set_source_word(src, w, rng.next_u64());
          }
        }
        sim.eval();
        double* const leak = leak_buf[static_cast<std::size_t>(t)].data();
        leval.eval(sim, {leak, lanes});
        std::size_t arg = 0;
        for (std::size_t lane = 1; lane < lanes; ++lane) {
          if (leak[lane] < leak[arg]) arg = lane;
        }
        part.leak = leak[arg];
        const std::size_t w = arg / 64;
        for (std::size_t j = 0; j < n_src; ++j) {
          part.bits[j] = (sim.word(sources[j], static_cast<int>(w)) >>
                          (arg % 64)) &
                         1;
        }
      },
      [&](int t, std::size_t) {
        const SweepBest& part = parts[static_cast<std::size_t>(t)];
        if (!have_best || part.leak < best) {
          have_best = true;
          best = part.leak;
          best_bits = part.bits;
        }
      });
  res.vectors_evaluated = sweeps * lanes;
  res.random_best_na = best;

  // ---- refinement stage -------------------------------------------------
  // Steepest descent over single-bit flips: every neighbour of the
  // incumbent is one lane of a batch (lane j flips source chunk+j);
  // unflipped tail lanes replay the incumbent and cannot win a strict
  // improvement.
  BlockSimulator& sim = sims[0];
  double* const leak = leak_buf[0].data();
  while (res.refine_flips < opts.max_refine_flips) {
    double cand_best = best;
    std::size_t cand_flip = static_cast<std::size_t>(-1);
    for (std::size_t chunk = 0; chunk < n_src; chunk += lanes) {
      const std::size_t m = std::min(lanes, n_src - chunk);
      for (std::size_t j = 0; j < n_src; ++j) {
        const PatternWord bc = best_bits[j] ? ~PatternWord{0} : 0;
        for (int w = 0; w < W; ++w) sim.set_source_word(sources[j], w, bc);
      }
      for (std::size_t j = 0; j < m; ++j) {
        const int w = static_cast<int>(j / 64);
        sim.set_source_word(sources[chunk + j], w,
                            sim.word(sources[chunk + j], w) ^
                                (PatternWord{1} << (j % 64)));
      }
      sim.eval();
      leval.eval(sim, {leak, lanes});
      for (std::size_t j = 0; j < m; ++j) {
        if (leak[j] < cand_best) {
          cand_best = leak[j];
          cand_flip = chunk + j;
        }
      }
      res.vectors_evaluated += m;
    }
    if (cand_flip == static_cast<std::size_t>(-1)) break;
    best_bits[cand_flip] ^= 1;
    best = cand_best;
    ++res.refine_flips;
  }

  res.best_leakage_na = best;
  res.pi.reserve(nl.inputs().size());
  res.ppi.reserve(nl.dffs().size());
  for (std::size_t j = 0; j < n_src; ++j) {
    const Logic v = from_bool(best_bits[j] != 0);
    if (j < nl.inputs().size()) {
      res.pi.push_back(v);
    } else {
      res.ppi.push_back(v);
    }
  }
  SP_LOG_INFO(strprintf(
      "min_leakage_search[%s]: random best %.1f nA -> refined %.1f nA "
      "(%d flips, %zu vectors)",
      nl.name().c_str(), res.random_best_na, res.best_leakage_na,
      res.refine_flips, res.vectors_evaluated));
  return res;
}

}  // namespace scanpower
