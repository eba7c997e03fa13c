#pragma once
// Don't-care filling for the controlled inputs that remain unassigned
// after FindControlledInputPattern().
//
// The paper fills them with the input-vector-control recipe of
// [Halter/Najm]: "applying several random inputs and examining the total
// leakage for each of them" -- the number of required samples is far
// smaller than the 2^k vector space. The non-controlled pseudo-inputs
// stay X and contribute their expected leakage, so the objective is the
// same X-aware leakage the scan-mode average measures.

#include <cstdint>

#include "atpg/sim_backend.hpp"
#include "netlist/netlist.hpp"
#include "power/leakage_model.hpp"
#include "sim/logic.hpp"

namespace scanpower {

class ThreadPool;

struct FillOptions {
  int trials = 64;           ///< random candidates examined
  std::uint64_t seed = 0xf111f111ULL;
  bool minimize_leakage = true;  ///< false: take the first random fill
                                 ///< (baseline behaviour)
  /// Packed engine: all candidate fills are scored as bit lanes of
  /// 3-valued packed sweeps (up to 256 candidates each); the
  /// non-multiplexed cells stay X lanes-wide and contribute expected
  /// leakage through the (state, xmask) tables. Draws the same random
  /// stream and computes bit-identical leakage to the scalar engine, so
  /// both pick the same fill. false = scalar reference (one 3-valued
  /// Simulator pass + circuit_leakage_na walk per trial).
  ///
  /// Every 64-trial word draws from a generator seeded by (seed, trial /
  /// 64) alone -- in both engines -- so trial blocks are independent and
  /// the packed engine can partition them across a worker pool.
  bool packed = true;
  /// Worker threads for the packed sweep; 1 = serial, 0 = all cores.
  /// Results are bit-identical across thread counts: candidate blocks
  /// have fixed per-block seeds and block results are merged in
  /// ascending block order.
  int num_threads = 1;
  /// Kernel backend for the packed sweep; Auto = best available.
  /// Results are bit-identical across backends.
  SimBackend backend = SimBackend::Auto;
  /// Borrowed per-(netlist, model) leakage tables for the packed engine;
  /// null = build a private copy per call (the one-shot cost a
  /// ScanSession amortizes). Must match the (netlist, model) pair passed
  /// to fill_dont_cares_min_leakage.
  const GateLeakageTables* tables = nullptr;
  /// Borrowed worker pool; null = create a private one of num_threads
  /// workers. Any pool size produces bit-identical fills.
  ThreadPool* pool = nullptr;
};

struct FillResult {
  double best_leakage_na = 0.0;   ///< expected leakage of the chosen fill
  double first_leakage_na = 0.0;  ///< leakage of the first (random) fill
  int trials = 0;
  std::size_t free_inputs = 0;    ///< number of X positions filled
};

/// Fills every X in `pi_pattern` / `mux_pattern` in place. Positions of
/// `mux_pattern` marked X that correspond to non-multiplexed cells must be
/// excluded by the caller passing `mux_eligible` (true = cell is
/// multiplexed and may be assigned).
FillResult fill_dont_cares_min_leakage(const Netlist& nl,
                                       const LeakageModel& model,
                                       std::vector<Logic>& pi_pattern,
                                       std::vector<Logic>& mux_pattern,
                                       const std::vector<bool>& mux_eligible,
                                       const FillOptions& opts = {});

}  // namespace scanpower
