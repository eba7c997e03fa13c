// Command-line front end for arbitrary .bench / structural .v designs: runs the full
// DATE'05 comparison flow on a user-supplied circuit through a ScanSession
// (one session per run; its cached test set / observability / tables are
// what a long-running service would keep warm between queries).
//
//   flow_cli <design.bench> [options]
//     --no-map            skip NAND/NOR/INV technology mapping
//     --no-reorder        skip pin reordering
//     --no-obs            undirected justification (no observability)
//     --margin <ps>       extra slack demanded by AddMUX
//     --seed <n>          ATPG/fill/observability seed
//     --threads <n>       fault-simulation worker threads (0 = all cores)
//     --block-words <w>   fault-simulation and diagnosis block width in
//                         64-bit words (results do not depend on it)
//     --backend <b>       kernel backend (auto, scalar, avx2, avx512)
//     --json <file>       machine-readable result dump (includes a
//                         "metrics" section with the session's counters)
//     --write <out.bench> write the mux-inserted netlist
//     --verbose           narrate flow progress (same as --log-level info)
//     --log-level <l>     stderr log threshold: debug|info|warn|error|off
//     --metrics           print the session's metrics snapshot (text)
//     --metrics=json      ... as a JSON object on stdout
//     --trace <file>      record phase spans and write a Chrome trace_event
//                         JSON file

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli_common.hpp"
#include "core/session.hpp"
#include "core/verify.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/stats.hpp"
#include "scan/add_mux.hpp"
#include "techmap/techmap.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

using namespace scanpower;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <design.bench> [--no-map] [--no-reorder] [--no-obs]"
               " [--margin ps] [--seed n] [--threads n] [--block-words w]"
               " [--backend auto|scalar|avx2|avx512]"
               " [--json file] [--write out.bench] [--verbose]"
               " [--log-level debug|info|warn|error|off]"
               " [--metrics | --metrics=json] [--trace file]\n"
               "  --block-words sets the fault-simulation and diagnosis block"
               " width; results do not depend on it.\n",
               argv0);
  return 2;
}

void dump_json(const char* path, const FlowResult& r, const FlowOptions& opts,
               const MetricsSnapshot& snap) {
  std::ofstream f(path);
  SP_CHECK(f.good(), std::string("cannot write ") + path);
  JsonWriter j(f);
  j.begin_object();
  j.field("circuit", r.circuit);
  j.field("num_comb_gates", static_cast<std::uint64_t>(r.stats.num_comb_gates));
  j.field("num_dffs", static_cast<std::uint64_t>(r.stats.num_dffs));
  j.field("num_patterns", static_cast<std::uint64_t>(r.num_patterns));
  j.field("fault_coverage", r.fault_coverage);
  j.begin_object("options");
  j.field("block_words", opts.tpg.fault_sim.block_words);
  j.field("backend", backend_name(opts.tpg.fault_sim.backend));
  j.field("num_threads", opts.tpg.fault_sim.num_threads);
  j.field("seed", opts.tpg.seed);
  j.end_object();
  j.begin_object("mux");
  j.field("num_multiplexed", static_cast<std::uint64_t>(r.mux_plan.num_multiplexed));
  j.field("num_cells", static_cast<std::uint64_t>(r.mux_plan.multiplexed.size()));
  j.end_object();
  const auto power = [&](const char* name, const ScanPowerResult& p) {
    j.begin_object(name);
    j.field("dynamic_per_hz_uw", p.dynamic_per_hz_uw);
    j.field("static_uw", p.static_uw);
    j.field("peak_dynamic_per_hz_uw", p.peak_dynamic_per_hz_uw);
    j.end_object();
  };
  power("traditional", r.traditional);
  power("input_control", r.input_control);
  power("proposed", r.proposed);
  j.begin_object("improvement_pct");
  j.field("dyn_vs_traditional", r.dyn_vs_traditional_pct);
  j.field("stat_vs_traditional", r.stat_vs_traditional_pct);
  j.field("dyn_vs_input_control", r.dyn_vs_input_control_pct);
  j.field("stat_vs_input_control", r.stat_vs_input_control_pct);
  j.end_object();
  j.begin_object("metrics");
  snap.write_json(j);
  j.end_object();
  j.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const char* path = nullptr;
  const char* write_path = nullptr;
  const char* json_path = nullptr;
  const char* trace_path = nullptr;
  bool metrics_text = false;
  bool metrics_json = false;
  bool do_map = true;
  std::uint64_t seed = 0;
  bool have_seed = false;
  FlowOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (cli::flag(argv, i, "--no-map")) {
      do_map = false;
    } else if (cli::flag(argv, i, "--no-reorder")) {
      opts.do_pin_reorder = false;
    } else if (cli::flag(argv, i, "--no-obs")) {
      opts.use_observability_directive = false;
    } else if (cli::value_flag(argc, argv, i, "--margin",
                               opts.mux.slack_margin_ps)) {
    } else if (cli::value_flag(argc, argv, i, "--seed", seed)) {
      have_seed = true;
    } else if (cli::value_flag(argc, argv, i, "--threads",
                               opts.tpg.fault_sim.num_threads)) {
      opts.diag.num_threads = opts.tpg.fault_sim.num_threads;
    } else if (cli::value_flag(argc, argv, i, "--block-words",
                               opts.tpg.fault_sim.block_words)) {
      opts.diag.block_words = opts.tpg.fault_sim.block_words;
    } else if (cli::backend_flag(argc, argv, i, "--backend",
                                 opts.tpg.fault_sim.backend)) {
      opts.diag.backend = opts.tpg.fault_sim.backend;
      opts.observability.backend = opts.tpg.fault_sim.backend;
      opts.fill.backend = opts.tpg.fault_sim.backend;
    } else if (cli::value_flag(argc, argv, i, "--json", json_path)) {
    } else if (cli::value_flag(argc, argv, i, "--write", write_path)) {
    } else if (cli::value_flag(argc, argv, i, "--trace", trace_path)) {
    } else if (cli::flag(argv, i, "--metrics")) {
      metrics_text = true;
    } else if (cli::flag(argv, i, "--metrics=json")) {
      metrics_json = true;
    } else if (cli::flag(argv, i, "--verbose")) {
      set_log_level(LogLevel::Info);
    } else if (cli::value_flag(argc, argv, i, "--log-level", v)) {
      set_log_level(cli::parse_log_level(v));
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      path = argv[i];
    }
  }
  if (!path) return usage(argv[0]);
  if (have_seed) {
    opts.tpg.seed = seed;
    opts.observability.seed = seed ^ 0x0b5e;
    opts.fill.seed = seed ^ 0xf111;
  }

  try {
    Netlist nl = load_design(path, do_map);
    std::printf("%s: %s\n\n", nl.name().c_str(),
                compute_stats(nl).to_string().c_str());

    ScanSession session(std::move(nl), opts);
    if (trace_path) session.telemetry().trace.set_enabled(true);
    const FlowResult r = session.run_flow();
    std::printf("%zu test patterns, %.1f%% fault coverage, %zu/%zu cells "
                "multiplexed\n\n",
                r.num_patterns, 100.0 * r.fault_coverage,
                r.mux_plan.num_multiplexed, r.mux_plan.multiplexed.size());
    std::printf("%-16s %14s %12s %14s\n", "structure", "dyn (uW/Hz)",
                "static (uW)", "peak dyn");
    auto row = [](const char* name, const ScanPowerResult& p) {
      std::printf("%-16s %14.3e %12.2f %14.3e\n", name, p.dynamic_per_hz_uw,
                  p.static_uw, p.peak_dynamic_per_hz_uw);
    };
    row("traditional", r.traditional);
    row("input control", r.input_control);
    row("proposed", r.proposed);
    std::printf("\nimprovement vs traditional: dyn %.1f%%, static %.1f%%\n",
                r.dyn_vs_traditional_pct, r.stat_vs_traditional_pct);
    std::printf("improvement vs input ctl  : dyn %.1f%%, static %.1f%%\n",
                r.dyn_vs_input_control_pct, r.stat_vs_input_control_pct);

    if (json_path) {
      dump_json(json_path, r, opts, session.metrics());
      std::printf("\nwrote JSON result to %s\n", json_path);
    }

    if (metrics_text || metrics_json) {
      const MetricsSnapshot snap = session.metrics();
      std::ostringstream os;
      if (metrics_json) {
        JsonWriter j(os);
        j.begin_object();
        snap.write_json(j);
        j.end_object();
        std::printf("%s\n", os.str().c_str());
      } else {
        snap.write_text(os);
        std::printf("\nmetrics:\n%s", os.str().c_str());
      }
    }
    if (trace_path) {
      std::ofstream f(trace_path);
      SP_CHECK(f.good(), std::string("cannot write ") + trace_path);
      session.telemetry().trace.write_chrome_trace(f);
      std::printf("wrote Chrome trace (%zu spans) to %s\n",
                  session.telemetry().trace.events().size(), trace_path);
    }

    if (write_path) {
      const Netlist muxed = insert_muxes_physically(
          session.netlist(), r.mux_plan, r.pattern.mux_pattern);
      std::ofstream f(write_path);
      SP_CHECK(f.good(), std::string("cannot write ") + write_path);
      write_bench(f, muxed);
      std::printf("\nwrote mux-inserted netlist to %s\n", write_path);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
