// Regenerates Table I of the paper: dynamic (uW/Hz) and static (uW) power
// of the combinational part during scan, for traditional scan, the
// input-control technique [Huang & Lee, TCAD'01] and the proposed
// structure, on the twelve ISCAS89-profile circuits.
//
// Absolute numbers differ from the paper (synthetic circuit instances, an
// analytic leakage model calibrated only at NAND2, our own ATPG vectors);
// the comparison targets are the *shape* columns: who wins, by roughly
// what factor, and where the method saturates.
//
// Usage: table1_power [--circuits s344,s382] [--max-gates N]

#include <cstdio>

#include "bench_common.hpp"
#include "netlist/stats.hpp"
#include "util/thread_pool.hpp"

using namespace scanpower;
using namespace scanpower::benchtool;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);

  std::printf(
      "Table I: power dissipation for the proposed and prior structures\n"
      "(* = synthetic ISCAS89-profile circuit; see DESIGN.md)\n\n");
  std::printf(
      "%-8s | %-23s | %-23s | %-23s | %-15s | %-15s\n", "", "traditional",
      "input control [8]", "proposed", "impr vs trad %", "impr vs IC %");
  std::printf(
      "%-8s | %11s %11s | %11s %11s | %11s %11s | %7s %7s | %7s %7s\n",
      "circuit", "dyn(uW/Hz)", "stat(uW)", "dyn(uW/Hz)", "stat(uW)",
      "dyn(uW/Hz)", "stat(uW)", "dyn", "stat", "dyn", "stat");
  const char* sep =
      "---------+-------------------------+-------------------------+----"
      "---------------------+-----------------+----------------\n";
  std::printf("%s", sep);

  for (const PaperRow& row : paper_table1()) {
    if (!args.selected(row.circuit)) continue;
    const Netlist nl = prepare_circuit(row.circuit);
    const NetlistStats st = compute_stats(nl);
    if (args.max_gates > 0 &&
        st.num_comb_gates > static_cast<std::size_t>(args.max_gates)) {
      std::printf("%-7s* | skipped (--max-gates %d)\n", row.circuit,
                  args.max_gates);
      continue;
    }
    const FlowOptions opts = tuned_options(st.num_comb_gates);
    ScanSession session(nl, opts);
    const FlowResult r = session.run_flow();
    std::printf(
        "%-7s* | %11.3e %11.2f | %11.3e %11.2f | %11.3e %11.2f | %7.2f "
        "%7.2f | %7.2f %7.2f   (measured)\n",
        row.circuit, r.traditional.dynamic_per_hz_uw, r.traditional.static_uw,
        r.input_control.dynamic_per_hz_uw, r.input_control.static_uw,
        r.proposed.dynamic_per_hz_uw, r.proposed.static_uw,
        r.dyn_vs_traditional_pct, r.stat_vs_traditional_pct,
        r.dyn_vs_input_control_pct, r.stat_vs_input_control_pct);
    std::printf(
        "%-8s | %11.3e %11.2f | %11.3e %11.2f | %11.3e %11.2f | %7.2f "
        "%7.2f | %7.2f %7.2f   (paper)\n",
        "", row.trad_dyn, row.trad_stat, row.ic_dyn, row.ic_stat,
        row.prop_dyn, row.prop_stat, row.impr_dyn_trad, row.impr_stat_trad,
        row.impr_dyn_ic, row.impr_stat_ic);
    std::printf("%-8s | muxed %zu/%zu cells, %zu patterns, %.1f%% coverage, "
                "blocked %zu / propagated %zu gates [fsim %dx64 lanes, "
                "%d thread(s)]\n",
                "", r.mux_plan.num_multiplexed, r.mux_plan.multiplexed.size(),
                r.num_patterns, 100.0 * r.fault_coverage,
                r.pattern.gates_blocked, r.pattern.gates_propagated,
                kSweepWords,
                ThreadPool::resolve_threads(opts.tpg.fault_sim.num_threads));
    std::printf("%s", sep);
    std::fflush(stdout);
  }
  return 0;
}
