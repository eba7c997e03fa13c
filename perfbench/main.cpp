// scanbench: the repository's end-to-end benchmark.
//
//   scanbench --workload flow_atpg|flow_power|diag_compacted
//             --seed N --seconds S --trace 0|1 [--workload-seed N]
//             [--work-dir DIR]
//
// Prints notes (host, percentiles) and, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics of untraced ops; --trace 1 reports the per-layer
// metrics of a traced run. perfbench/run.py builds and drives it.

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "atpg/sim_backend.hpp"
#include "benchgen/benchgen.hpp"
#include "scanbench.hpp"

namespace {

using namespace scanbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

/// The inputs a workload measures when --workload-seed is 0. The
/// canonical seed plus one is held out for confirming a claim on inputs
/// no change was tuned on.
std::uint64_t canonical_seed(const std::string& workload) {
  if (workload == "flow_atpg") {
    for (const scanpower::SynthProfile& p : scanpower::iscas89_profiles()) {
      if (p.name == "s344") return p.seed;  // generate_synthetic seed
    }
  }
  return workload == "flow_power" ? 0x1423'0128ULL : 0xd1a6'0713'1423ULL;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "scanbench: %s\nusage: scanbench --workload "
               "flow_atpg|flow_power|diag_compacted "
               "--seed N --seconds S --trace 0|1 [--workload-seed N] "
               "[--work-dir D]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.work_dir = ".";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
      } else if (a == "--seed") {
        cfg.run_seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        cfg.trace = std::stoi(v) != 0;
      } else if (a == "--workload-seed") {
        cfg.workload_seed = std::stoull(v, nullptr, 0);
      } else if (a == "--work-dir") {
        cfg.work_dir = v;
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (cfg.seconds <= 0) return usage("bad --seconds");
  if (cfg.workload_seed == 0) cfg.workload_seed = canonical_seed(cfg.workload);

  Report r;
  try {
    std::filesystem::create_directories(cfg.work_dir);
    if (cfg.workload == "flow_atpg") {
      r = run_flow_atpg(cfg);
    } else if (cfg.workload == "flow_power") {
      r = run_flow_power(cfg);
    } else if (cfg.workload == "diag_compacted") {
      r = run_diag_service(cfg);
    } else {
      return usage(("unknown workload " + cfg.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scanbench: %s\n", e.what());
    return 1;
  }

  const scanpower::SimBackend backend =
      scanpower::resolve_backend(scanpower::SimBackend::Auto, 4);
  std::cout << "# host: nproc " << std::thread::hardware_concurrency()
            << ", cpu " << cpu_model() << ", compiler " << SCANBENCH_COMPILER
            << ", build " << SCANBENCH_BUILD_TYPE << ", backend "
            << scanpower::backend_name(backend) << " (W=4)\n";
  std::cout << "# workload " << cfg.workload << ", workload seed "
            << cfg.workload_seed << " (held-out "
            << canonical_seed(cfg.workload) + 1 << "), run seed " << cfg.run_seed
            << ", " << cfg.seconds << " s, trace " << cfg.trace << "\n";
  for (const std::string& n : r.notes) std::cout << "# " << n << "\n";
  for (const Metric& m : r.metrics) {
    std::cout << "# " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    json += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
            number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
