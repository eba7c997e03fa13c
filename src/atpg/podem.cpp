#include "atpg/podem.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace scanpower {

namespace {

/// Kleene evaluation of a gate whose pin values are read through
/// `in(pin)`: the same function as eval_gate(), without gathering the
/// inputs into a buffer first.
template <class In>
inline Logic eval_pins(GateType t, std::size_t n, In&& in) {
  switch (t) {
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      unsigned seen = 0;  // bit v set when some pin carries Logic(v)
      for (std::size_t p = 0; p < n; ++p) {
        seen |= 1u << static_cast<unsigned>(in(p));
      }
      const bool and_type = t == GateType::And || t == GateType::Nand;
      const Logic dominant = and_type ? Logic::Zero : Logic::One;
      Logic r;
      if (seen & (1u << static_cast<unsigned>(dominant))) {
        r = dominant;
      } else if (seen & (1u << static_cast<unsigned>(Logic::X))) {
        r = Logic::X;
      } else {
        r = logic_not(dominant);
      }
      return t == GateType::Nand || t == GateType::Nor ? logic_not(r) : r;
    }
    case GateType::Not:
      return logic_not(in(0));
    case GateType::Buf:
      return in(0);
    case GateType::Xor:
    case GateType::Xnor: {
      bool acc = t == GateType::Xnor;
      for (std::size_t p = 0; p < n; ++p) {
        const Logic v = in(p);
        if (v == Logic::X) return Logic::X;
        acc ^= as_bool(v);
      }
      return from_bool(acc);
    }
    case GateType::Mux: {
      const Logic s = in(0);
      const Logic a = in(1);
      const Logic b = in(2);
      if (s == Logic::Zero) return a;
      if (s == Logic::One) return b;
      return a == b ? a : Logic::X;
    }
    case GateType::Const0:
      return Logic::Zero;
    case GateType::Const1:
      return Logic::One;
    case GateType::Input:
    case GateType::Dff:
      break;
  }
  SP_ASSERT(false, "eval_pins called on a source (Input/Dff)");
  return Logic::X;
}

}  // namespace

Podem::Podem(const Netlist& nl, PodemOptions opts,
             std::vector<bool> decision_points)
    : nl_(&nl), opts_(opts) {
  SP_CHECK(nl.finalized(), "Podem requires a finalized netlist");
  if (!opts_.directive) opts_.directive = &default_directive_;
  types_ = nl.types_flat();
  levels_ = nl.levels_flat();
  const std::size_t n = nl.num_gates();

  decision_.assign(n, 0);
  if (decision_points.empty()) {
    for (GateId pi : nl.inputs()) decision_[pi] = 1;
    for (GateId ff : nl.dffs()) decision_[ff] = 1;
  } else {
    SP_CHECK(decision_points.size() == n,
             "Podem: decision-point mask size mismatch");
    for (GateId id = 0; id < n; ++id) {
      if (!decision_points[id]) continue;
      SP_CHECK(is_source(id), "Podem: decision point " + nl.gate_name(id) +
                                  " is not a source");
      decision_[id] = 1;
    }
  }
  // A line can be controlled iff it is a decision point or one of its
  // fanins can (sources other than decision points cannot, nor can
  // constants).
  can_control_ = decision_;
  for (GateId id : nl.topo_order()) {
    for (GateId f : nl.fanin_span(id)) {
      if (can_control_[f]) {
        can_control_[id] = 1;
        break;
      }
    }
  }

  // The all-X good machine is the same for every fault.
  x_good_.assign(n, Logic::X);
  for (GateId id : nl.topo_order()) x_good_[id] = eval_good_in(id, x_good_);

  observed_.assign(n, 0);
  for (GateId po : nl.outputs()) observed_[po] = 1;
  for (GateId ff : nl.dffs()) observed_[nl.fanin_span(ff)[0]] = 1;

  assign_.assign(n, Logic::X);
  good_.resize(n);
  faulty_.resize(n);
  cone_stamp_.assign(n, 0);
  queued_.assign(n, 0);
  buckets_.resize(static_cast<std::size_t>(nl.depth()) + 1);
  start_fault();  // the fault-free all-X state justify() builds on
}

Logic Podem::eval_good_in(GateId gate, const std::vector<Logic>& values) const {
  const auto fins = nl_->fanin_span(gate);
  return eval_pins(types_[gate], fins.size(),
                   [&](std::size_t p) { return values[fins[p]]; });
}

Logic Podem::eval_faulty(GateId gate) const {
  if (gate != fault_.gate) {
    return eval_good_in(gate, faulty_);
  }
  if (fault_.pin < 0) return from_bool(fault_.stuck_at);
  const auto fins = nl_->fanin_span(gate);
  const std::size_t pin = static_cast<std::size_t>(fault_.pin);
  return eval_pins(types_[gate], fins.size(), [&](std::size_t p) {
    return p == pin ? from_bool(fault_.stuck_at) : faulty_[fins[p]];
  });
}

Logic Podem::faulty_input(GateId gate, std::size_t pin) const {
  if (gate == fault_.gate && static_cast<int>(pin) == fault_.pin) {
    return from_bool(fault_.stuck_at);
  }
  return faulty_[nl_->fanin_span(gate)[pin]];
}

GateId Podem::activation_line() const {
  // Stem fault: the gate's own output line. Pin fault: the driver of the
  // faulted branch must carry the opposite value.
  if (fault_.pin < 0) return fault_.gate;
  return nl_->fanin_span(fault_.gate)[static_cast<std::size_t>(fault_.pin)];
}

void Podem::start_fault() {
  const Netlist& nl = *nl_;
  std::copy(x_good_.begin(), x_good_.end(), good_.begin());
  std::copy(x_good_.begin(), x_good_.end(), faulty_.begin());
  trail_.clear();
  cone_.clear();
  cone_obs_.clear();
  if (++stamp_ == 0) {  // wrapped: forget every old mark
    std::fill(cone_stamp_.begin(), cone_stamp_.end(), 0);
    stamp_ = 1;
  }
  // A DFF pin fault changes nothing the faulty machine computes: the D pin
  // is a sink of the combinational view.
  if (dff_pin_fault_ || fault_.gate == kInvalidGate) return;

  // Transitive fanout of the fault site through combinational gates (DFFs
  // are sources of the full-scan view, so the effect stops at their D pin).
  cone_.push_back(fault_.gate);
  cone_stamp_[fault_.gate] = stamp_;
  for (std::size_t i = 0; i < cone_.size(); ++i) {
    for (GateId f : nl.fanout_span(cone_[i])) {
      if (types_[f] == GateType::Dff || cone_stamp_[f] == stamp_) continue;
      cone_stamp_[f] = stamp_;
      cone_.push_back(f);
    }
  }
  std::sort(cone_.begin(), cone_.end(), [this](GateId a, GateId b) {
    return levels_[a] != levels_[b] ? levels_[a] > levels_[b] : a < b;
  });
  for (GateId g : cone_) {
    if (observed_[g]) cone_obs_.push_back(g);
  }
  // Faulty machine over the cone, shallowest first; outside it the faulty
  // machine equals the good one.
  for (auto it = cone_.rbegin(); it != cone_.rend(); ++it) {
    const GateId g = *it;
    if (is_source(g)) {
      faulty_[g] = from_bool(fault_.stuck_at);  // stem fault on a PI/DFF
    } else {
      faulty_[g] = eval_faulty(g);
      ++implied_gates_;
    }
  }
}

void Podem::schedule_fanouts(GateId gate) {
  for (GateId f : nl_->fanout_span(gate)) {
    if (types_[f] == GateType::Dff || queued_[f]) continue;
    queued_[f] = 1;
    const std::uint32_t lvl = levels_[f];
    buckets_[lvl].push_back(f);
    lo_level_ = std::min(lo_level_, lvl);
    hi_level_ = std::max(hi_level_, lvl);
  }
}

void Podem::propagate() {
  // Every combinational edge raises the level, so a gate scheduled while
  // level L drains lands in a deeper bucket and sees settled inputs.
  for (std::uint32_t lvl = lo_level_; lvl <= hi_level_; ++lvl) {
    std::vector<GateId>& bucket = buckets_[lvl];
    for (const GateId g : bucket) {
      queued_[g] = 0;
      ++implied_gates_;
      const Logic ng = eval_good_in(g, good_);
      const Logic nf = cone_stamp_[g] == stamp_ ? eval_faulty(g) : ng;
      if (ng == good_[g] && nf == faulty_[g]) continue;
      trail_.push_back({g, good_[g], faulty_[g]});
      good_[g] = ng;
      faulty_[g] = nf;
      schedule_fanouts(g);
    }
    bucket.clear();
  }
  lo_level_ = kNoLevel;
  hi_level_ = 0;
}

void Podem::set_source(GateId point, Logic value) {
  trail_.push_back({point, good_[point], faulty_[point]});
  assign_[point] = value;
  good_[point] = value;
  faulty_[point] = fault_.pin < 0 && point == fault_.gate
                       ? from_bool(fault_.stuck_at)
                       : value;
  schedule_fanouts(point);
  propagate();
}

void Podem::decide(GateId point, Logic value) {
  SP_ASSERT(assign_[point] == Logic::X, "backtrace chose an assigned point");
  decisions_.push_back({point, value, false, trail_.size()});
  ++num_decisions_;
  set_source(point, value);
}

void Podem::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    good_[e.gate] = e.good;
    faulty_[e.gate] = e.faulty;
    trail_.pop_back();
  }
}

bool Podem::detected() const {
  if (dff_pin_fault_) {
    const Logic d = good_[nl_->fanin_span(fault_.gate)[0]];
    return is_known(d) && as_bool(d) != fault_.stuck_at;
  }
  // A PO or DFF D driver outside the cone carries no fault effect.
  for (GateId g : cone_obs_) {
    if (is_known(good_[g]) && is_known(faulty_[g]) && good_[g] != faulty_[g]) {
      return true;
    }
  }
  return false;
}

bool Podem::activation_impossible() const {
  const Logic v = good_[activation_line()];
  return is_known(v) && as_bool(v) == fault_.stuck_at;
}

bool Podem::activated() const {
  const Logic v = good_[activation_line()];
  return is_known(v) && as_bool(v) != fault_.stuck_at;
}

void Podem::collect_frontier() {
  frontier_.clear();
  for (GateId g : cone_) {
    // A frontier gate's output cannot yet show the effect, but one of its
    // inputs does.
    if (is_source(g)) continue;
    const bool out_open = good_[g] == Logic::X || faulty_[g] == Logic::X;
    if (!out_open) continue;
    const auto fins = nl_->fanin_span(g);
    for (std::size_t p = 0; p < fins.size(); ++p) {
      const Logic gv = good_[fins[p]];
      const Logic fv = faulty_input(g, p);
      if (is_known(gv) && is_known(fv) && gv != fv) {
        frontier_.push_back(g);
        break;
      }
    }
  }
}

std::optional<std::pair<GateId, bool>> Podem::objective() const {
  // Phase 1: excite the fault.
  if (!activated()) {
    const GateId line = activation_line();
    if (good_[line] != Logic::X) return std::nullopt;  // impossible
    return std::make_pair(line, !fault_.stuck_at);
  }
  if (dff_pin_fault_) return std::nullopt;  // activation == detection here
  // Phase 2: drive the effect through a D-frontier gate. Scan every
  // frontier gate (deepest first) for an extendable side input: its good
  // value must be open (X) and its faulty value must not already be the
  // controlling value (which would block the effect in the faulty
  // machine no matter what we justify).
  for (GateId g : frontier_) {
    const auto cv = controlling_value(types_[g]);
    const auto fins = nl_->fanin_span(g);
    for (std::size_t p = 0; p < fins.size(); ++p) {
      const GateId fin = fins[p];
      if (good_[fin] != Logic::X) continue;
      const Logic fv = faulty_input(g, p);
      if (cv && fv == from_bool(*cv)) continue;  // permanently blocked pin
      // Non-controlling value lets the effect pass; for parity-type gates
      // any fixed value works.
      const bool v = cv ? !*cv : false;
      return std::make_pair(fin, v);
    }
  }
  // No frontier extension available, but that is not a *proof* of a dead
  // end (a faulty-machine blocking value may flip under a different
  // source assignment). Stay complete by brute-force extending the
  // assignment: pick any unassigned decision point.
  for (GateId pi : nl_->inputs()) {
    if (decision_[pi] && assign_[pi] == Logic::X) {
      return std::make_pair(pi, false);
    }
  }
  for (GateId ff : nl_->dffs()) {
    if (decision_[ff] && assign_[ff] == Logic::X) {
      return std::make_pair(ff, false);
    }
  }
  // Every decision point assigned and still neither detected nor
  // conflicting: no extension of this assignment can detect the fault, so
  // the caller's dead-end handling (backtrack) is sound.
  return std::nullopt;
}

std::pair<GateId, Logic> Podem::backtrace(GateId node, bool value) {
  const Netlist& nl = *nl_;
  GateId cur = node;
  bool v = value;
  for (;;) {
    if (decision_[cur]) return {cur, from_bool(v)};
    // Dead end: no decision point feeds this line (a constant, a source
    // outside the mask, or logic fed only by those).
    if (!can_control_[cur]) return {kInvalidGate, Logic::X};
    const GateType t = types_[cur];
    const auto fins = nl.fanin_span(cur);
    const bool want = is_inverting(t) ? !v : v;
    // Candidates: fanins still unknown in the good machine that a
    // decision can reach. With every source a decision point the filter
    // is a no-op: an X line always reaches an unassigned source.
    candidates_.clear();
    for (GateId f : fins) {
      if (good_[f] == Logic::X && can_control_[f]) candidates_.push_back(f);
    }
    if (candidates_.empty()) return {kInvalidGate, Logic::X};
    const auto cv = controlling_value(t);
    bool next_value;
    GateId chosen;
    if (cv) {
      // want (pre-inversion sense) equal to the controlled AND/OR result?
      // AND-family: output sense 'want'==false needs one controlling 0;
      // 'want'==true needs all-1. OR-family dual.
      const bool needs_controlling = (want == (t == GateType::Or || t == GateType::Nor));
      if (needs_controlling) {
        chosen = opts_.directive->choose(nl, cur, candidates_, *cv);
        next_value = *cv;
      } else {
        chosen = opts_.directive->choose(nl, cur, candidates_, !*cv);
        next_value = !*cv;
      }
    } else if (t == GateType::Buf || t == GateType::Not) {
      chosen = fins[0];
      next_value = want;
    } else {
      // XOR/XNOR/MUX: pick a candidate and aim for `want`; backtracking
      // corrects bad guesses.
      chosen = opts_.directive->choose(nl, cur, candidates_, want);
      next_value = want;
    }
    cur = chosen;
    v = next_value;
  }
}

bool Podem::backtrack(int limit) {
  while (!decisions_.empty()) {
    Decision& d = decisions_.back();
    undo_to(d.mark);
    if (!d.flipped && backtracks_ < limit) {
      d.flipped = true;
      d.value = logic_not(d.value);
      ++backtracks_;
      set_source(d.point, d.value);
      return true;
    }
    assign_[d.point] = Logic::X;
    decisions_.pop_back();
  }
  return false;
}

PodemResult Podem::generate(const Fault& fault) {
  const Netlist& nl = *nl_;
  fault_ = fault;
  dff_pin_fault_ = fault.pin >= 0 && nl.type(fault.gate) == GateType::Dff;
  std::fill(assign_.begin(), assign_.end(), Logic::X);
  decisions_.clear();
  backtracks_ = 0;
  num_decisions_ = 0;
  implied_gates_ = 0;
  start_fault();

  PodemResult res;
  const auto finish = [&](PodemStatus status) {
    res.status = status;
    res.backtracks = backtracks_;
    res.decisions = num_decisions_;
    res.implied_gates = implied_gates_;
    return res;
  };
  for (;;) {
    if (detected()) {
      for (GateId pi : nl.inputs()) res.pattern.pi.push_back(assign_[pi]);
      for (GateId ff : nl.dffs()) res.pattern.ppi.push_back(assign_[ff]);
      return finish(PodemStatus::Detected);
    }
    if (backtracks_ >= opts_.backtrack_limit) {
      return finish(PodemStatus::Aborted);
    }
    // The frontier matters only once the fault is excited; objective()
    // reads the one collected here.
    bool dead = activation_impossible();
    if (!dead && activated() && !dff_pin_fault_) {
      collect_frontier();
      dead = frontier_.empty();
    }
    std::pair<GateId, Logic> pick{kInvalidGate, Logic::X};
    if (!dead) {
      if (const auto obj = objective()) {
        pick = backtrace(obj->first, obj->second);
      }
    }
    if (pick.first == kInvalidGate) {
      if (!backtrack(opts_.backtrack_limit)) {
        return finish(PodemStatus::Untestable);
      }
      continue;
    }
    decide(pick.first, pick.second);
  }
}

bool Podem::justify(GateId line, bool value, int backtrack_limit) {
  if (fault_.gate != kInvalidGate) {
    // generate() left a fault behind: back to the fault-free all-X state.
    fault_ = Fault{};
    dff_pin_fault_ = false;
    std::fill(assign_.begin(), assign_.end(), Logic::X);
    decisions_.clear();
    start_fault();
  }
  const Logic target = from_bool(value);
  if (good_[line] == target) return true;
  if (good_[line] != Logic::X) return false;  // contradicts commitments
  if (!can_control_[line]) return false;

  backtracks_ = 0;
  for (;;) {
    if (good_[line] == target) {
      decisions_.clear();  // commit: the trail so far is the new prefix
      return true;
    }
    std::pair<GateId, Logic> pick{kInvalidGate, Logic::X};
    if (good_[line] == Logic::X) pick = backtrace(line, value);
    if (pick.first == kInvalidGate) {
      // On failure every decision of this call is undone, which rewinds
      // the trail to the call's first mark.
      if (!backtrack(backtrack_limit)) return false;
      continue;
    }
    decide(pick.first, pick.second);
  }
}

}  // namespace scanpower
