// Input-vector-control explorer: the static-power machinery of the paper
// in isolation.
//
// Shows, for one circuit: leakage observability of the primary inputs
// (the [15] attribute the paper extends to internal lines) and the packed
// minimum-leakage vector search ([14]'s random-sampling recipe, batched
// 256 vectors per sweep plus single-bit refinement), compared against
// exhaustive search when the input space is small enough.

#include <cstdio>
#include <string>

#include "benchgen/benchgen.hpp"
#include "cli_common.hpp"
#include "core/find_pattern.hpp"
#include "power/leakage_model.hpp"
#include "power/observability.hpp"
#include "sim/simulator.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"

using namespace scanpower;

int main(int argc, char** argv) {
  std::string name = "s27";
  MinLeakageSearchOptions sopts;
  sopts.seed = 0xbeef;
  for (int i = 1; i < argc; ++i) {
    if (cli::value_flag(argc, argv, i, "--sweeps", sopts.sweeps)) {
    } else if (cli::value_flag(argc, argv, i, "--threads", sopts.num_threads)) {
    } else if (cli::backend_flag(argc, argv, i, "--backend", sopts.backend)) {
    } else {
      name = argv[i];
    }
  }
  const Netlist nl = map_to_nand_nor_inv(make_circuit(name));
  const LeakageModel model;

  std::printf("circuit %s: %zu gates\n\n", name.c_str(), nl.num_gates());

  // Leakage observability at the primary inputs (positive -> the line at 1
  // costs leakage; drive it to 0 in standby).
  ObservabilityOptions oopts;
  oopts.samples = 2048;
  oopts.num_threads = sopts.num_threads;
  oopts.backend = sopts.backend;
  const LeakageObservability obs(nl, model, oopts);
  std::printf("leakage observability (PIs), mean leakage %.1f nA:\n",
              obs.mean_leakage_na());
  for (GateId pi : nl.inputs()) {
    std::printf("  %-6s %+9.2f nA  -> prefer %c\n",
                nl.gate_name(pi).c_str(), obs.obs(pi),
                obs.obs(pi) > 0 ? '0' : '1');
  }

  // Packed minimum-leakage vector search over PIs + scan cells: 256
  // random vectors per sweep, then steepest-descent bit flips.
  const std::size_t n_src = nl.inputs().size() + nl.dffs().size();
  const MinLeakageSearchResult search =
      min_leakage_vector_search(nl, model, sopts);
  std::printf("\npacked search (%zu vectors, %d refinement flips): "
              "random best %.1f nA -> %.1f nA (%.2f uW at 0.9 V)\n",
              search.vectors_evaluated, search.refine_flips,
              search.random_best_na, search.best_leakage_na,
              search.best_leakage_na * 0.9e-3);

  if (n_src <= 20) {
    Simulator sim(nl);
    auto eval_vec = [&](std::uint64_t bits) {
      unsigned k = 0;
      for (GateId pi : nl.inputs()) {
        sim.set_input(pi, from_bool((bits >> k++) & 1));
      }
      for (GateId ff : nl.dffs()) {
        sim.set_state(ff, from_bool((bits >> k++) & 1));
      }
      sim.eval_incremental();
      return model.circuit_leakage_na(nl, sim.values());
    };
    double exact = 1e300;
    double worst = 0.0;
    for (std::uint64_t v = 0; v < (1ull << n_src); ++v) {
      const double leak = eval_vec(v);
      if (leak < exact) exact = leak;
      if (leak > worst) worst = leak;
    }
    std::printf("exhaustive (%llu vectors): best %.1f nA, worst %.1f nA\n",
                static_cast<unsigned long long>(1ull << n_src), exact, worst);
    std::printf("packed search found within %.2f%% of the true minimum;\n"
                "min-vs-max leakage spread is %.1fx -- why vector control "
                "matters.\n",
                100.0 * (search.best_leakage_na - exact) / exact,
                worst / exact);
  } else {
    std::printf("(input space too large for exhaustive comparison)\n");
  }

  // Echo the chosen vector.
  std::string vec;
  for (Logic v : search.pi) vec.push_back(v == Logic::One ? '1' : '0');
  for (Logic v : search.ppi) vec.push_back(v == Logic::One ? '1' : '0');
  std::printf("\nbest vector (PIs then scan cells): %s\n", vec.c_str());
  return 0;
}
