#pragma once
// Leakage observability, extended from primary inputs to every line.
//
// Definition (eq. (6) of the paper, after [Johnson/Somasekhar/Roy]):
//   L_obs(i) = L_avg(i, 1) - L_avg(i, 0)
// where L_avg(i, v) is the average total leakage when line i is forced to
// v. A large magnitude means the line's value strongly influences total
// leakage; the sign says which value is cheaper (positive -> prefer 0).
//
// The paper uses the attribute as a *directive* at the two decision points
// of FindControlledInputPattern(): when a value must be set to '1' pick
// the line with minimum observability, when '0' pick maximum.
//
// Two estimation engines:
//  - MonteCarlo: sample random source vectors, simulate, and average total
//    leakage conditioned on each line's value. Exact in expectation,
//    including reconvergent fanout correlations. Samples are lanes of
//    fixed 256-sample packed sweeps (kObservabilityBlockWords), so the
//    values depend only on (netlist, model, samples, seed).
//  - Probabilistic: independence-assumption signal probabilities; the
//    conditional averages are computed by forcing p(line) to 1/0 and
//    re-propagating probabilities through the line's fanout cone (in the
//    spirit of the reverse-topological computation of [15]).

#include <cstdint>
#include <vector>

#include "atpg/sim_backend.hpp"
#include "netlist/netlist.hpp"
#include "power/leakage_model.hpp"

namespace scanpower {

class ThreadPool;

enum class ObservabilityMethod { MonteCarlo, Probabilistic };

/// Words per MonteCarlo sample block: block b holds samples 256b..256b+255
/// and draws, from Rng(block_seed(seed, b)), kObservabilityBlockWords
/// words per primary input and then per DFF (lane l of a source is bit
/// l % 64 of its word l / 64).
inline constexpr int kObservabilityBlockWords = 4;

struct ObservabilityOptions {
  ObservabilityMethod method = ObservabilityMethod::MonteCarlo;
  int samples = 256;                ///< MonteCarlo sample count
  std::uint64_t seed = 0xb5eeccaa11dd22ffULL;
  /// Kernel backend for the MonteCarlo sweep; Auto = best available.
  /// Results are bit-identical across backends.
  SimBackend backend = SimBackend::Auto;
  /// Worker threads for the MonteCarlo sweep; 1 = serial, 0 = all cores.
  /// Results are bit-identical across thread counts: every sample block
  /// has a fixed seed derived from (seed, block index) and block partials
  /// are reduced in block order.
  int num_threads = 1;
  /// Borrowed per-(netlist, model) leakage tables; null = build a private
  /// copy (the one-shot cost a ScanSession amortizes across calls). Must
  /// be built from the same netlist and model passed to the constructor.
  const GateLeakageTables* tables = nullptr;
  /// Borrowed worker pool; null = create a private one of num_threads
  /// workers. Any pool size produces bit-identical values (see
  /// num_threads), so sharing a session's pool is result-neutral.
  ThreadPool* pool = nullptr;
};

class LeakageObservability {
 public:
  LeakageObservability(const Netlist& nl, const LeakageModel& model,
                       ObservabilityOptions opts = {});

  /// L_obs of a line (the output net of gate id), in nA.
  double obs(GateId id) const { return obs_[id]; }
  const std::vector<double>& values() const { return obs_; }

  /// Expected total leakage under random inputs (nA) -- a byproduct used
  /// as a baseline by reports.
  double mean_leakage_na() const { return mean_leakage_na_; }

 private:
  void compute_monte_carlo(const Netlist& nl, const LeakageModel& model,
                           const ObservabilityOptions& opts);
  void compute_probabilistic(const Netlist& nl, const LeakageModel& model);

  std::vector<double> obs_;
  double mean_leakage_na_ = 0.0;
};

/// Signal probabilities under the independence assumption:
/// p[g] = P(line g = 1) with sources at 0.5 (or forced values).
/// Exposed for tests and for the probabilistic observability engine.
std::vector<double> signal_probabilities(const Netlist& nl);

/// Expected leakage (nA) of one gate given fanin 1-probabilities (treated
/// as independent).
double expected_gate_leakage_na(const LeakageModel& model, GateType type,
                                const std::vector<double>& fanin_probs);

}  // namespace scanpower
