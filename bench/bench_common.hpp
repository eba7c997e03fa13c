#pragma once
// Shared helpers for the experiment harnesses: circuit preparation,
// per-size flow tuning, and the paper's Table-I reference values.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "core/session.hpp"
#include "techmap/techmap.hpp"

namespace scanpower::benchtool {

/// Paper Table I rows (traditional / input-control / proposed).
struct PaperRow {
  const char* circuit;
  double trad_dyn, trad_stat;
  double ic_dyn, ic_stat;
  double prop_dyn, prop_stat;
  double impr_dyn_trad, impr_stat_trad;
  double impr_dyn_ic, impr_stat_ic;
};

inline const std::vector<PaperRow>& paper_table1() {
  static const std::vector<PaperRow> rows = {
      {"s344", 5.88e-8, 27.99, 5.72e-8, 27.50, 3.24e-8, 23.89, 44.82, 14.65, 43.23, 13.12},
      {"s382", 6.43e-8, 27.58, 5.51e-8, 26.69, 2.38e-8, 24.42, 62.90, 11.46, 56.73, 8.50},
      {"s444", 8.00e-8, 33.72, 6.92e-8, 33.30, 2.44e-8, 27.99, 69.44, 17.00, 64.67, 15.95},
      {"s510", 8.46e-8, 47.93, 8.18e-8, 47.50, 8.22e-8, 45.96, 2.92, 4.11, -0.41, 3.24},
      {"s641", 5.69e-8, 59.07, 1.77e-8, 56.97, 1.78e-8, 48.97, 68.80, 17.10, -0.5, 14.05},
      {"s713", 6.30e-8, 66.15, 1.85e-8, 64.90, 1.82e-8, 52.10, 71.06, 21.23, 1.25, 19.71},
      {"s1196", 3.10e-8, 115.54, 3.06e-8, 117.75, 2.52e-8, 95.78, 18.61, 17.09, 17.50, 18.65},
      {"s1238", 3.19e-8, 121.56, 3.39e-8, 124.75, 2.59e-8, 96.38, 18.64, 20.70, 23.63, 22.74},
      {"s1423", 2.24e-7, 128.22, 1.93e-7, 130.23, 5.43e-8, 117.0, 75.77, 9.02, 71.83, 10.43},
      {"s1494", 3.56e-7, 177.52, 3.48e-7, 179.86, 3.52e-7, 164.87, 9.52, 7.12, 7.45, 8.33},
      {"s5378", 8.90e-7, 327.52, 1.29e-8, 332.02, 1.17e-8, 315.0, 98.68, 3.82, 9.50, 5.12},
      {"s9234", 1.50e-6, 819.98, 1.68e-8, 854.52, 1.57e-8, 772.36, 98.95, 5.80, 6.96, 9.61},
  };
  return rows;
}

/// Maps the named ISCAS89-profile circuit onto the paper's library.
inline Netlist prepare_circuit(const std::string& name) {
  return map_to_nand_nor_inv(make_iscas89_like(name));
}

/// Flow options tuned by circuit size so the large profiles finish in
/// laptop time without changing the method (only search budgets shrink).
/// The fault simulator runs the 4-word packed block (the observability
/// and fill engines pick their own width); the large profiles
/// additionally fan the fault sweep and the Monte-Carlo observability out
/// over all hardware threads (results are bit-identical to the serial
/// engines). The packed power stack made the per-sample cost ~10x
/// cheaper, so the large profiles now afford the full sample/trial
/// budgets.
inline FlowOptions tuned_options(std::size_t num_gates) {
  FlowOptions opts;
  opts.tpg.fault_sim.block_words = 4;
  if (num_gates > 4000) {
    opts.tpg.podem_backtrack_limit = 60;
    opts.tpg.max_random_batches = 48;
    opts.justify_backtrack_limit = 60;
    opts.max_power_patterns = 256;
    opts.tpg.fault_sim.num_threads = 0;  // hardware concurrency
    opts.observability.num_threads = 0;
  } else if (num_gates > 1500) {
    opts.tpg.podem_backtrack_limit = 200;
    opts.justify_backtrack_limit = 120;
    opts.max_power_patterns = 512;
    opts.tpg.fault_sim.num_threads = 0;  // hardware concurrency
    opts.observability.num_threads = 0;
  }
  return opts;
}

/// Parses "--circuits a,b,c" and "--max-gates N" style filters.
struct BenchArgs {
  std::vector<std::string> circuits;  ///< empty = all
  int max_gates = 0;                  ///< 0 = unlimited

  bool selected(const std::string& name) const {
    if (circuits.empty()) return true;
    for (const auto& c : circuits) {
      if (c == name) return true;
    }
    return false;
  }
};

/// Ablation harnesses default to a representative small/medium subset so
/// the whole bench sweep stays affordable; --circuits overrides.
inline void default_to_small_set(BenchArgs& args) {
  if (args.circuits.empty()) {
    args.circuits = {"s344", "s382", "s444"};
  }
}

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--circuits") == 0 && i + 1 < argc) {
      std::string list = argv[++i];
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string tok =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!tok.empty()) args.circuits.push_back(tok);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (std::strcmp(argv[i], "--max-gates") == 0 && i + 1 < argc) {
      args.max_gates = std::atoi(argv[++i]);
    }
  }
  return args;
}

}  // namespace scanpower::benchtool
