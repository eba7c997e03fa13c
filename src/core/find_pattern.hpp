#pragma once
// FindControlledInputPattern() -- the paper's core procedure (Section 4).
//
// Inputs: a mapped netlist, the mux plan (which pseudo-inputs are
// controlled), leakage observability of every line, and an output-
// capacitance model. Output: one scan-mode pattern for the controlled
// inputs that blocks as many scan-chain transitions as possible, biased
// toward low leakage by the observability directive.
//
// Worklists:
//   TNS (transition node set): lines that carry transitions during shift.
//   TGS (transition gate set): gates fed by a transition whose outcome is
//     still open (they have unassigned side inputs that could receive the
//     controlling value).
//
// Main loop (paper pseudocode): pick the TGS gate with the largest output
// capacitance (mc_tg), try to justify its controlling value on one of its
// don't-care side inputs (candidate order and the Justify() backtrace are
// both directed by leakage observability); on failure the transition
// propagates: mc_tg's output joins TNS and its fanout gates are
// (re)examined.
//
// Justify() is Podem::justify() (atpg/podem.hpp): PODEM's search and
// event-driven implication on the fault-free machine, with the controlled
// inputs as decision points. Non-controlled pseudo-inputs stay X (their
// values change every shift cycle, so nothing may depend on them), and
// each successful justification is a commitment later ones must respect.
//
// Note on the published pseudocode: step f ("add all fan-out nodes of
// mc_tg to TNS") is reached via the Goto in step d.iii even when blocking
// *succeeded*; propagating a blocked gate's output would mark constant
// lines as transitioning, so we implement the semantically consistent
// reading -- fanouts are added only when every candidate fails.

#include <vector>

#include "atpg/backtrace_directive.hpp"
#include "atpg/sim_backend.hpp"
#include "netlist/netlist.hpp"
#include "power/leakage_model.hpp"
#include "scan/add_mux.hpp"
#include "sim/logic.hpp"
#include "timing/delay_model.hpp"

namespace scanpower {

struct FindPatternOptions {
  /// Leakage observability per line; enables the paper's directive for
  /// candidate selection and backtrace. May be null (undirected baseline,
  /// as in the input-control technique [8]).
  const std::vector<double>* observability = nullptr;
  int justify_backtrack_limit = 500;
  /// Whether primary inputs are controllable (true for both the paper's
  /// method and the input-control baseline).
  bool control_primary_inputs = true;
};

struct FindPatternResult {
  /// Pattern over primary inputs, ordered like Netlist::inputs(); X =
  /// don't care (to be filled later).
  std::vector<Logic> pi_pattern;
  /// Constants for multiplexed cells, ordered like Netlist::dffs(); X for
  /// non-multiplexed cells (and still-free multiplexed ones).
  std::vector<Logic> mux_pattern;
  /// Implied 3-valued internal values under the pattern (non-controlled
  /// pseudo-inputs X).
  std::vector<Logic> implied_values;
  /// Lines marked as carrying transitions when the procedure finished.
  std::vector<bool> transition_nodes;
  std::size_t gates_blocked = 0;     ///< TGS entries resolved by justification
  std::size_t gates_propagated = 0;  ///< TGS entries whose transition escaped
  std::size_t transition_lines = 0;  ///< |TNS| at exit
};

FindPatternResult find_controlled_input_pattern(
    const Netlist& nl, const MuxPlan& mux_plan, const CapacitanceModel& caps,
    const FindPatternOptions& opts = {});

// ---- packed minimum-leakage vector search ----------------------------------
//
// The standby-vector search ([14]'s random-sampling recipe, which the
// paper reuses for don't-care filling) evaluated one scalar vector at a
// time. The packed stage evaluates 256 fully specified candidate vectors
// per sweep on the BlockSimulator + GateLeakageTables engine: a
// random-restart stage (each sweep drawn from a fixed per-sweep seed,
// sweeps partitioned across a worker pool, partials merged in sweep order
// so the result is bit-identical for any thread count) followed by a
// steepest-descent refinement stage that scores every single-bit
// neighbour of the incumbent as lanes of one batch.

struct MinLeakageSearchOptions {
  int sweeps = 8;             ///< random-restart sweeps (256 vectors each)
  int max_refine_flips = 64;  ///< accepted single-bit refinement moves
  int num_threads = 1;        ///< workers for the random stage (0 = all cores)
  /// Kernel backend for the packed sweeps; Auto = best available.
  /// Results are bit-identical across backends.
  SimBackend backend = SimBackend::Auto;
  std::uint64_t seed = 0x3ea2c0de5ee51eafULL;
};

struct MinLeakageSearchResult {
  /// Best vector found, ordered like Netlist::inputs() / Netlist::dffs().
  std::vector<Logic> pi;
  std::vector<Logic> ppi;
  double best_leakage_na = 0.0;    ///< after refinement
  double random_best_na = 0.0;     ///< best of the random-restart stage
  std::size_t vectors_evaluated = 0;
  int refine_flips = 0;            ///< accepted refinement moves
};

/// Searches for a minimum-leakage standby vector over all sources (PIs
/// and scan cells).
MinLeakageSearchResult min_leakage_vector_search(
    const Netlist& nl, const LeakageModel& model,
    const MinLeakageSearchOptions& opts = {});

}  // namespace scanpower
