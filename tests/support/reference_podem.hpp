#pragma once
// Full-imply reference for Podem: the original engine, kept as a test
// oracle for the event-driven one. After every decision it re-simulates
// the whole good and faulty machines in topological order and rescans the
// whole circuit for the D-frontier. Its search decisions (objective,
// backtrace, backtrack) are the production engine's, minus the X-path
// dead-end check: this is the unpruned search, which the production
// engine must match in status and pattern wherever this one finishes,
// with no more backtracks or decisions (tests/test_podem_exact.cpp).
// Also carries a copy of generate_tests() driven by this engine.
// Header-only because every tests/*.cpp builds into its own executable.

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "atpg/backtrace_directive.hpp"
#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/pattern.hpp"
#include "atpg/podem.hpp"
#include "atpg/tpg.hpp"
#include "netlist/netlist.hpp"
#include "sim/logic.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scanpower::oracle {

/// Podem(nl, opts).generate(fault) without the X-path check: same
/// status and pattern where this search finishes, at least as many
/// backtracks and decisions (implied_gates and xpath_prunes stay 0).
class ReferencePodem {
 public:
  explicit ReferencePodem(const Netlist& nl, PodemOptions opts = {})
      : nl_(&nl), opts_(opts) {
    SP_CHECK(nl.finalized(), "Podem requires a finalized netlist");
    if (!opts_.directive) opts_.directive = &default_directive_;
    assign_.assign(nl.num_gates(), Logic::X);
    good_.assign(nl.num_gates(), Logic::X);
    faulty_.assign(nl.num_gates(), Logic::X);
  }

  PodemResult generate(const Fault& fault) {
    const Netlist& nl = *nl_;
    fault_ = fault;
    dff_pin_fault_ = fault.pin >= 0 && nl.type(fault.gate) == GateType::Dff;
    std::fill(assign_.begin(), assign_.end(), Logic::X);
    decisions_.clear();
    backtracks_ = 0;
    num_decisions_ = 0;

    PodemResult res;
    for (;;) {
      imply();
      if (detected()) {
        res.status = PodemStatus::Detected;
        res.backtracks = backtracks_;
        res.decisions = num_decisions_;
        res.pattern.pi.clear();
        res.pattern.ppi.clear();
        for (GateId pi : nl.inputs()) res.pattern.pi.push_back(assign_[pi]);
        for (GateId ff : nl.dffs()) res.pattern.ppi.push_back(assign_[ff]);
        return res;
      }
      const bool dead =
          activation_impossible() ||
          (activated() && !dff_pin_fault_ && d_frontier().empty());
      std::optional<std::pair<GateId, bool>> obj;
      if (!dead) obj = objective();
      if (dead || !obj) {
        if (backtracks_ >= opts_.backtrack_limit) {
          res.status = PodemStatus::Aborted;
          res.backtracks = backtracks_;
          res.decisions = num_decisions_;
          return res;
        }
        if (!backtrack()) {
          res.status = PodemStatus::Untestable;
          res.backtracks = backtracks_;
          res.decisions = num_decisions_;
          return res;
        }
        continue;
      }
      if (backtracks_ >= opts_.backtrack_limit) {
        res.status = PodemStatus::Aborted;
        res.backtracks = backtracks_;
        res.decisions = num_decisions_;
        return res;
      }
      const auto [point, value] = backtrace(obj->first, obj->second);
      SP_ASSERT(assign_[point] == Logic::X,
                "backtrace chose an assigned point");
      assign_[point] = value;
      decisions_.push_back({point, value, false});
      ++num_decisions_;
    }
  }

 private:
  struct Decision {
    GateId point;
    Logic value;
    bool flipped;
  };

  Logic faulty_input(GateId gate, std::size_t pin) const {
    if (gate == fault_.gate && static_cast<int>(pin) == fault_.pin) {
      return from_bool(fault_.stuck_at);
    }
    return faulty_[nl_->fanins(gate)[pin]];
  }

  GateId activation_line() const {
    if (fault_.pin < 0) return fault_.gate;
    return nl_->fanins(fault_.gate)[static_cast<std::size_t>(fault_.pin)];
  }

  void imply() {
    const Netlist& nl = *nl_;
    for (GateId pi : nl.inputs()) {
      good_[pi] = assign_[pi];
      faulty_[pi] = assign_[pi];
    }
    for (GateId ff : nl.dffs()) {
      good_[ff] = assign_[ff];
      faulty_[ff] = assign_[ff];
    }
    if (fault_.pin < 0) {
      const GateType t = nl.type(fault_.gate);
      if (t == GateType::Input || t == GateType::Dff) {
        faulty_[fault_.gate] = from_bool(fault_.stuck_at);
      }
    }
    std::vector<Logic> ins;
    for (GateId id : nl.topo_order()) {
      const Gate& g = nl.gate(id);
      ins.clear();
      for (GateId f : g.fanins) ins.push_back(good_[f]);
      good_[id] = eval_gate(g.type, ins);
      ins.clear();
      for (std::size_t p = 0; p < g.fanins.size(); ++p) {
        ins.push_back(faulty_input(id, p));
      }
      faulty_[id] = eval_gate(g.type, ins);
      if (fault_.pin < 0 && id == fault_.gate) {
        faulty_[id] = from_bool(fault_.stuck_at);
      }
    }
  }

  bool detected() const {
    const Netlist& nl = *nl_;
    if (dff_pin_fault_) {
      const Logic d = good_[nl.fanins(fault_.gate)[0]];
      return is_known(d) && as_bool(d) != fault_.stuck_at;
    }
    for (GateId po : nl.outputs()) {
      if (is_known(good_[po]) && is_known(faulty_[po]) &&
          good_[po] != faulty_[po]) {
        return true;
      }
    }
    for (GateId dff : nl.dffs()) {
      const GateId d = nl.fanins(dff)[0];
      if (is_known(good_[d]) && is_known(faulty_[d]) &&
          good_[d] != faulty_[d]) {
        return true;
      }
    }
    return false;
  }

  bool activation_impossible() const {
    const Logic v = good_[activation_line()];
    return is_known(v) && as_bool(v) == fault_.stuck_at;
  }

  bool activated() const {
    const Logic v = good_[activation_line()];
    return is_known(v) && as_bool(v) != fault_.stuck_at;
  }

  std::vector<GateId> d_frontier() const {
    const Netlist& nl = *nl_;
    std::vector<GateId> frontier;
    for (GateId id : nl.topo_order()) {
      const bool out_open = good_[id] == Logic::X || faulty_[id] == Logic::X;
      if (!out_open) continue;
      const Gate& g = nl.gate(id);
      for (std::size_t p = 0; p < g.fanins.size(); ++p) {
        const Logic gv = good_[g.fanins[p]];
        const Logic fv = faulty_input(id, p);
        if (is_known(gv) && is_known(fv) && gv != fv) {
          frontier.push_back(id);
          break;
        }
      }
    }
    return frontier;
  }

  std::optional<std::pair<GateId, bool>> objective() {
    if (!activated()) {
      const GateId line = activation_line();
      if (good_[line] != Logic::X) return std::nullopt;
      return std::make_pair(line, !fault_.stuck_at);
    }
    if (dff_pin_fault_) return std::nullopt;
    auto frontier = d_frontier();
    std::sort(frontier.begin(), frontier.end(), [this](GateId a, GateId b) {
      return nl_->level(a) != nl_->level(b) ? nl_->level(a) > nl_->level(b)
                                            : a < b;
    });
    for (GateId g : frontier) {
      const Gate& gate = nl_->gate(g);
      const auto cv = controlling_value(gate.type);
      for (std::size_t p = 0; p < gate.fanins.size(); ++p) {
        const GateId fin = gate.fanins[p];
        if (good_[fin] != Logic::X) continue;
        const Logic fv = faulty_input(g, p);
        if (cv && fv == from_bool(*cv)) continue;
        const bool v = cv ? !*cv : false;
        return std::make_pair(fin, v);
      }
    }
    for (GateId pi : nl_->inputs()) {
      if (assign_[pi] == Logic::X) return std::make_pair(pi, false);
    }
    for (GateId ff : nl_->dffs()) {
      if (assign_[ff] == Logic::X) return std::make_pair(ff, false);
    }
    return std::nullopt;
  }

  std::pair<GateId, Logic> backtrace(GateId node, bool value) const {
    const Netlist& nl = *nl_;
    GateId cur = node;
    bool v = value;
    for (;;) {
      const GateType t = nl.type(cur);
      if (t == GateType::Input || t == GateType::Dff) {
        return {cur, from_bool(v)};
      }
      SP_ASSERT(t != GateType::Const0 && t != GateType::Const1,
                "backtrace reached a constant (objective unreachable)");
      const Gate& g = nl.gate(cur);
      const bool want = is_inverting(t) ? !v : v;
      std::vector<GateId> candidates;
      for (GateId f : g.fanins) {
        if (good_[f] == Logic::X) candidates.push_back(f);
      }
      SP_ASSERT(!candidates.empty(), "backtrace on a fully specified gate");
      const auto cv = controlling_value(t);
      bool next_value;
      GateId chosen;
      if (cv) {
        const bool needs_controlling =
            (want == (t == GateType::Or || t == GateType::Nor));
        if (needs_controlling) {
          chosen = opts_.directive->choose(nl, cur, candidates, *cv);
          next_value = *cv;
        } else {
          chosen = opts_.directive->choose(nl, cur, candidates, !*cv);
          next_value = !*cv;
        }
      } else if (t == GateType::Buf || t == GateType::Not) {
        chosen = g.fanins[0];
        next_value = want;
      } else {
        chosen = opts_.directive->choose(nl, cur, candidates, want);
        next_value = want;
      }
      cur = chosen;
      v = next_value;
    }
  }

  bool backtrack() {
    while (!decisions_.empty()) {
      Decision& d = decisions_.back();
      if (!d.flipped) {
        d.flipped = true;
        d.value = logic_not(d.value);
        assign_[d.point] = d.value;
        ++backtracks_;
        return true;
      }
      assign_[d.point] = Logic::X;
      decisions_.pop_back();
    }
    return false;
  }

  const Netlist* nl_;
  PodemOptions opts_;
  DepthDirective default_directive_;
  Fault fault_{};
  bool dff_pin_fault_ = false;

  std::vector<Logic> assign_;
  std::vector<Logic> good_;
  std::vector<Logic> faulty_;
  std::vector<Decision> decisions_;
  int backtracks_ = 0;
  int num_decisions_ = 0;
};

/// generate_tests() with every PODEM call made by ReferencePodem; the rest
/// of the flow (random phase, batching, compaction) is the library's, line
/// for line. Same TestSet as generate_tests(nl, opts) when the two engines
/// agree.
inline TestSet reference_generate_tests(const Netlist& nl,
                                        const TpgOptions& opts = {}) {
  Rng rng(opts.seed);
  const std::vector<Fault> faults = collapse_faults(nl);
  FaultSimulator fsim(nl, opts.fault_sim);

  TestSet ts;
  ts.seed = opts.seed;
  ts.total_faults = faults.size();

  std::vector<bool> detected(faults.size(), false);
  std::size_t num_detected = 0;

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

  PodemOptions popts;
  popts.backtrack_limit = opts.podem_backtrack_limit;
  ReferencePodem podem(nl, popts);
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
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (detected[fi]) continue;
    const PodemResult pr = podem.generate(faults[fi]);
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

  const FaultSimResult final_res = fsim.run(ts.patterns, faults);
  ts.detected_faults = final_res.num_detected;
  return ts;
}

}  // namespace scanpower::oracle
