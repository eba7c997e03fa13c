#pragma once
// PODEM (Goel, "An Implicit Enumeration Algorithm to Generate Tests for
// Combinational Logic Circuits", IEEE TC 1981) over dual 3-valued
// good/faulty machines of the full-scan combinational view. One search
// and implication engine serves two entry points:
//  - generate(fault): a test for one stuck-at fault;
//  - justify(line, value, limit): the paper's Justify(), which
//    FindControlledInputPattern uses to set blocking values.
//
// Decisions are made only at decision points: a mask of sources (PIs and
// DFF outputs) fixed at construction, every source by default. Sources
// outside the mask stay X. With every source a decision point the search
// is complete: if the decision tree is exhausted the fault is proven
// untestable (redundant). The backtrace tie-break is pluggable
// (BacktraceDirective); FindControlledInputPattern drives justify() with
// the leakage-observability directive.
//
// justify() runs on the fault-free machine, and its justifications are
// cumulative: a successful call commits its assignments (the trail prefix
// below the call's first mark) and later calls must respect them; a
// failed call rewinds the trail to that mark. generate() starts each
// fault from the all-X state, so it discards the commitments.
//
// Implication is event-driven. Each fault starts from the all-X state
// (the good machine's is computed once per engine; the faulty machine is
// re-evaluated over the fault's cone only). A decision or a flip then
// re-evaluates, level by level over the CSR views, just the gates whose
// inputs changed, recording every overwritten (good, faulty) pair on an
// undo trail; a backtrack rewinds the trail to the decision's mark
// instead of re-simulating. Outside the fault's transitive fanout cone
// the faulty machine equals the good one, so only cone gates evaluate it
// (justify()'s fault-free machine has an empty cone), and the D-frontier
// and detection checks scan only the cone and its observation points
// (POs and DFF D drivers).

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "atpg/backtrace_directive.hpp"
#include "atpg/fault.hpp"
#include "atpg/pattern.hpp"
#include "netlist/netlist.hpp"
#include "sim/logic.hpp"

namespace scanpower {

struct PodemOptions {
  int backtrack_limit = 4000;  ///< generate() only; justify() takes its own
  const BacktraceDirective* directive = nullptr;  ///< default: DepthDirective
};

enum class PodemStatus { Detected, Untestable, Aborted };

struct PodemResult {
  PodemStatus status = PodemStatus::Aborted;
  TestPattern pattern;  ///< with X at unassigned positions (Detected only)
  int backtracks = 0;
  int decisions = 0;    ///< source assignments made by backtrace (not flips)
  std::uint64_t implied_gates = 0;  ///< gate evaluations made by implication
};

class Podem {
 public:
  /// `nl` must outlive the engine and stay unedited while it is in use.
  /// `decision_points[g]` marks the sources (Input/Dff gates) the search
  /// may assign; empty = every source.
  explicit Podem(const Netlist& nl, PodemOptions opts = {},
                 std::vector<bool> decision_points = {});

  PodemResult generate(const Fault& fault);

  /// Attempts to set `line` to `value` on top of the committed
  /// assignment. Commits on success; restores the previous state on
  /// failure, including when a flip would exceed `backtrack_limit`
  /// backtracks. Returns success.
  bool justify(GateId line, bool value, int backtrack_limit);

  /// Fault-free values under the committed assignment (X on free and
  /// non-decision sources); read them between justify() calls.
  const std::vector<Logic>& values() const { return good_; }
  Logic value(GateId id) const { return good_[id]; }
  /// Committed decision-point assignment (X = still free).
  const std::vector<Logic>& assignment() const { return assign_; }
  /// True if the line's fanin cone reaches a decision point.
  bool can_control(GateId id) const { return can_control_[id] != 0; }

 private:
  struct Decision {
    GateId point;
    Logic value;
    bool flipped;
    std::size_t mark;  ///< trail size before the point was assigned
  };
  struct TrailEntry {
    GateId gate;
    Logic good;
    Logic faulty;
  };

  /// All-X state for fault_: builds the cone and evaluates its faulty
  /// machine on top of the shared all-X good machine. With no fault
  /// (fault_.gate == kInvalidGate) the cone is empty.
  void start_fault();
  /// Assigns a decision point and propagates the change.
  void set_source(GateId point, Logic value);
  /// Pushes a new decision and assigns it.
  void decide(GateId point, Logic value);
  void undo_to(std::size_t mark);
  void schedule_fanouts(GateId gate);
  void propagate();
  /// Gate output over `values` (the good machine, or the all-X seed).
  Logic eval_good_in(GateId gate, const std::vector<Logic>& values) const;
  /// Faulty-machine gate output, with the stem or pin fault forced.
  Logic eval_faulty(GateId gate) const;

  bool detected() const;
  bool activation_impossible() const;
  bool activated() const;
  /// Fills frontier_ with the gates that can still propagate the fault
  /// effect, deepest first (ties by lowest id).
  void collect_frontier();
  /// Objective (line, value) to pursue next; nullopt = dead end.
  std::optional<std::pair<GateId, bool>> objective() const;
  /// Maps an objective to an unassigned decision point through lines
  /// that can reach one; kInvalidGate when none supports the objective.
  std::pair<GateId, Logic> backtrace(GateId node, bool value);
  /// Flips the latest unflipped decision while fewer than `limit`
  /// backtracks were made; false (with every decision undone) when the
  /// tree is exhausted or the budget is spent.
  bool backtrack(int limit);

  Logic faulty_input(GateId gate, std::size_t pin) const;
  GateId activation_line() const;
  bool is_source(GateId id) const {
    const GateType t = types_[id];
    return t == GateType::Input || t == GateType::Dff;
  }

  const Netlist* nl_;
  PodemOptions opts_;
  DepthDirective default_directive_;
  std::span<const GateType> types_;
  std::span<const std::uint32_t> levels_;
  std::vector<std::uint8_t> decision_;     ///< decision-point mask
  std::vector<std::uint8_t> can_control_;  ///< cone reaches a decision point
  std::vector<Logic> x_good_;          ///< good machine with every source X
  std::vector<std::uint8_t> observed_; ///< PO or DFF D driver

  Fault fault_{};
  bool dff_pin_fault_ = false;
  std::vector<GateId> cone_;           ///< fault cone, deepest first
  std::vector<GateId> cone_obs_;       ///< observation points in the cone
  std::vector<std::uint32_t> cone_stamp_;  ///< == stamp_ marks cone gates
  std::uint32_t stamp_ = 0;

  std::vector<Logic> assign_;  ///< decision-point assignment (by gate id)
  std::vector<Logic> good_;
  std::vector<Logic> faulty_;
  std::vector<Decision> decisions_;
  std::vector<TrailEntry> trail_;
  static constexpr std::uint32_t kNoLevel =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::vector<GateId>> buckets_;  ///< pending events by level
  std::vector<std::uint8_t> queued_;
  std::uint32_t lo_level_ = kNoLevel;  ///< shallowest pending level
  std::uint32_t hi_level_ = 0;         ///< deepest pending level
  int backtracks_ = 0;
  int num_decisions_ = 0;
  std::uint64_t implied_gates_ = 0;

  // Scratch reused across calls.
  std::vector<GateId> frontier_;
  std::vector<GateId> candidates_;
};

}  // namespace scanpower
