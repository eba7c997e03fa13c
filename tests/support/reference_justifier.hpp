#pragma once
// Full-imply reference for Podem::justify(): the original line-justification
// engine behind FindControlledInputPattern, kept as a test oracle. After
// every decision, flip and rollback it re-simulates the whole circuit in
// topological order. Its search decisions (backtrace with the can-control
// filter, per-call decisions, budget checked only when backtracking) are
// the production engine's, so the two must agree on every call's result,
// the implied values and the committed assignment. Also carries a copy
// of find_controlled_input_pattern() driven by this engine. Header-only
// because every tests/*.cpp builds into its own executable.

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "atpg/backtrace_directive.hpp"
#include "core/find_pattern.hpp"
#include "netlist/netlist.hpp"
#include "scan/add_mux.hpp"
#include "sim/logic.hpp"
#include "timing/delay_model.hpp"
#include "util/assert.hpp"

namespace scanpower::oracle {

class ReferenceJustifier {
 public:
  /// `controllable[g]` marks gates (must be Input/Dff) whose value the
  /// scan-mode pattern may fix.
  ReferenceJustifier(const Netlist& nl, std::vector<bool> controllable,
                     const BacktraceDirective* directive = nullptr)
      : nl_(&nl),
        controllable_(std::move(controllable)),
        directive_(directive ? directive : &default_directive_) {
    SP_CHECK(nl.finalized(), "Justifier requires a finalized netlist");
    SP_CHECK(controllable_.size() == nl.num_gates(),
             "Justifier: controllable mask size mismatch");
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      if (!controllable_[id]) continue;
      const GateType t = nl.type(id);
      SP_CHECK(t == GateType::Input || t == GateType::Dff,
               "Justifier: controllable point " + nl.gate_name(id) +
                   " is not a source");
    }
    assign_.assign(nl.num_gates(), Logic::X);
    values_.assign(nl.num_gates(), Logic::X);

    // can_control: a line is influenceable iff it is a controlled input or
    // any fanin is influenceable (monotone over the topological order).
    can_control_.assign(nl.num_gates(), false);
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      if (controllable_[id]) can_control_[id] = true;
    }
    for (GateId id : nl.topo_order()) {
      for (GateId f : nl.fanins(id)) {
        if (can_control_[f]) {
          can_control_[id] = true;
          break;
        }
      }
    }
    imply();
  }

  /// Attempts to set line `node` to `value`. Commits on success; restores
  /// the previous state on failure. Returns success.
  bool justify(GateId node, bool value, int backtrack_limit = 500) {
    const Logic target = from_bool(value);
    if (values_[node] == target) return true;
    if (values_[node] != Logic::X) return false;  // contradicts commitments
    if (!can_control_[node]) return false;

    std::vector<Decision> decisions;
    int backtracks = 0;

    auto rollback_all = [&]() {
      for (const Decision& d : decisions) assign_[d.point] = Logic::X;
      decisions.clear();
      imply();
    };

    // Flips the most recent unflipped decision of *this* call; false when
    // the local decision tree is exhausted (or the budget ran out).
    auto backtrack = [&]() -> bool {
      while (!decisions.empty()) {
        Decision& d = decisions.back();
        if (!d.flipped && backtracks < backtrack_limit) {
          d.flipped = true;
          d.value = logic_not(d.value);
          assign_[d.point] = d.value;
          ++backtracks;
          imply();
          return true;
        }
        assign_[d.point] = Logic::X;
        decisions.pop_back();
      }
      return false;
    };

    for (;;) {
      if (values_[node] == target) return true;  // committed
      if (values_[node] != Logic::X) {
        if (!backtrack()) {
          rollback_all();
          return false;
        }
        continue;
      }
      // values_[node] == X: extend the assignment toward the objective.
      const auto [point, pv] = backtrace(node, value);
      if (point == kInvalidGate) {
        // No controllable X line supports the objective from here.
        if (!backtrack()) {
          rollback_all();
          return false;
        }
        continue;
      }
      SP_ASSERT(assign_[point] == Logic::X,
                "justify backtrace chose an assigned point");
      assign_[point] = pv;
      decisions.push_back({point, pv, false});
      imply();
    }
  }

  /// Current 3-valued circuit values under the committed assignment
  /// (non-controlled sources X).
  const std::vector<Logic>& values() const { return values_; }
  Logic value(GateId id) const { return values_[id]; }

  /// Committed controlled-input assignment (X = still free).
  const std::vector<Logic>& assignment() const { return assign_; }

  /// True if the line's value can be influenced by controlled inputs
  /// (i.e. its fanin cone reaches at least one controlled input).
  bool can_control(GateId id) const { return can_control_[id]; }

 private:
  struct Decision {
    GateId point;
    Logic value;
    bool flipped;
  };

  void imply() {
    const Netlist& nl = *nl_;
    for (GateId pi : nl.inputs()) {
      values_[pi] = controllable_[pi] ? assign_[pi] : Logic::X;
    }
    for (GateId ff : nl.dffs()) {
      values_[ff] = controllable_[ff] ? assign_[ff] : Logic::X;
    }
    std::vector<Logic> ins;
    for (GateId id : nl.topo_order()) {
      const Gate& g = nl.gate(id);
      ins.clear();
      for (GateId f : g.fanins) ins.push_back(values_[f]);
      values_[id] = eval_gate(g.type, ins);
    }
  }

  std::pair<GateId, Logic> backtrace(GateId node, bool value) const {
    const Netlist& nl = *nl_;
    GateId cur = node;
    bool v = value;
    for (;;) {
      const GateType t = nl.type(cur);
      if (controllable_[cur]) return {cur, from_bool(v)};
      if (t == GateType::Input || t == GateType::Dff || !can_control_[cur] ||
          t == GateType::Const0 || t == GateType::Const1) {
        return {kInvalidGate, Logic::X};  // dead end
      }
      const Gate& g = nl.gate(cur);
      const bool want = is_inverting(t) ? !v : v;
      std::vector<GateId> candidates;
      for (GateId f : g.fanins) {
        if (values_[f] == Logic::X && can_control_[f]) candidates.push_back(f);
      }
      if (candidates.empty()) return {kInvalidGate, Logic::X};
      const auto cv = controlling_value(t);
      GateId chosen;
      bool next_value;
      if (cv) {
        const bool needs_controlling =
            (want == (t == GateType::Or || t == GateType::Nor));
        const bool target = needs_controlling ? *cv : !*cv;
        chosen = directive_->choose(nl, cur, candidates, target);
        next_value = target;
      } else if (t == GateType::Buf || t == GateType::Not) {
        chosen = g.fanins[0];
        next_value = want;
      } else {
        chosen = directive_->choose(nl, cur, candidates, want);
        next_value = want;
      }
      cur = chosen;
      v = next_value;
    }
  }

  const Netlist* nl_;
  std::vector<bool> controllable_;
  std::vector<bool> can_control_;
  DepthDirective default_directive_;
  const BacktraceDirective* directive_;
  std::vector<Logic> assign_;
  std::vector<Logic> values_;
};

/// find_controlled_input_pattern() with every justification made by
/// ReferenceJustifier; the rest of the procedure (TNS/TGS worklists,
/// candidate order, final transition fixpoint) is the library's, line for
/// line. Same FindPatternResult as the library when the engines agree.
inline FindPatternResult reference_find_controlled_input_pattern(
    const Netlist& nl, const MuxPlan& mux_plan, const CapacitanceModel& caps,
    const FindPatternOptions& opts = {}) {
  const auto always_propagates = [](GateType t) {
    switch (t) {
      case GateType::Buf:
      case GateType::Not:
      case GateType::Xor:
      case GateType::Xnor:
      case GateType::Mux:
        return true;
      default:
        return false;
    }
  };

  std::vector<bool> controllable(nl.num_gates(), false);
  if (opts.control_primary_inputs) {
    for (GateId pi : nl.inputs()) controllable[pi] = true;
  }
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    if (mux_plan.multiplexed[i]) controllable[nl.dffs()[i]] = true;
  }

  DepthDirective depth_directive;
  std::unique_ptr<ObservabilityDirective> obs_directive;
  const BacktraceDirective* directive = &depth_directive;
  if (opts.observability) {
    obs_directive =
        std::make_unique<ObservabilityDirective>(*opts.observability);
    directive = obs_directive.get();
  }
  ReferenceJustifier justifier(nl, controllable, directive);

  const std::vector<double> loads = caps.load_vector(nl);

  FindPatternResult res;
  res.transition_nodes.assign(nl.num_gates(), false);

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

  std::vector<GateId> worklist;
  auto mark_transition = [&](GateId g) {
    if (res.transition_nodes[g]) return;
    res.transition_nodes[g] = true;
    tgs_erase(g);
    worklist.push_back(g);
  };

  auto update = [&]() {
    while (!worklist.empty()) {
      const GateId tn = worklist.back();
      worklist.pop_back();
      for (GateId target : nl.fanouts(tn)) {
        const GateType t = nl.type(target);
        if (t == GateType::Dff) continue;
        if (res.transition_nodes[target] || tgs_done[target]) continue;
        if (always_propagates(t)) {
          mark_transition(target);
          continue;
        }
        const auto cv = controlling_value(t);
        bool blocked = false;
        bool has_open = false;
        for (GateId f : nl.fanins(target)) {
          if (res.transition_nodes[f]) continue;
          const Logic v = justifier.value(f);
          if (v == from_bool(*cv)) {
            blocked = true;
            break;
          }
          if (v == Logic::X) has_open = true;
        }
        if (blocked) continue;
        if (!has_open) {
          mark_transition(target);
        } else {
          tgs_insert(target);
        }
      }
    }
  };

  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    if (!mux_plan.multiplexed[i]) mark_transition(nl.dffs()[i]);
  }
  if (!opts.control_primary_inputs) {
    for (GateId pi : nl.inputs()) mark_transition(pi);
  }
  update();

  while (!tgs.empty()) {
    const GateId mc_tg = tgs.begin()->id;
    tgs_erase(mc_tg);
    tgs_done[mc_tg] = true;
    if (res.transition_nodes[mc_tg]) continue;

    const GateType t = nl.type(mc_tg);
    const auto cv = controlling_value(t);

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
      continue;
    }
    ++res.gates_propagated;
    mark_transition(mc_tg);
    update();
  }

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
  res.transition_lines = static_cast<std::size_t>(std::count(
      res.transition_nodes.begin(), res.transition_nodes.end(), true));
  return res;
}

}  // namespace scanpower::oracle
