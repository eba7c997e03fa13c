#pragma once
// Deterministic test-set generation (substitute for ATOM [Hamzaoglu &
// Patel, VTS'98], which the paper uses to produce its test vectors).
//
// Flow: collapsed fault list -> random phase with fault dropping ->
// PODEM top-off for the remaining faults -> reverse-order fault-sim
// compaction. Produces compact, fully specified pattern sets with the
// coverage statistics reported alongside every experiment.

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/pattern.hpp"
#include "atpg/podem.hpp"
#include "netlist/netlist.hpp"

namespace scanpower {

/// Patterns per random-phase batch and per PODEM flush. Fixed rather than
/// tied to the fault simulator's block width, so the TestSet is the same
/// for every FaultSimOptions::block_words (256 = four 64-bit words).
inline constexpr std::size_t kTpgBatchPatterns = 256;

struct TpgOptions {
  std::uint64_t seed = 0xa70a70a7ULL;
  int max_random_batches = 64;      ///< random batches of kTpgBatchPatterns
  int unproductive_batch_limit = 2; ///< stop random phase after N dry batches
  int podem_backtrack_limit = 4000;
  bool compact = true;              ///< reverse-order compaction pass
  FaultSimOptions fault_sim;        ///< packed-block width / worker threads
};

TestSet generate_tests(const Netlist& nl, const TpgOptions& opts = {});

}  // namespace scanpower
