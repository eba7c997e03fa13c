#pragma once
// Shared pieces of the scanbench end-to-end benchmark: run configuration,
// the metric report every workload fills, latency summaries, and the
// trace analysis (per-stage totals, per-layer self time, Chrome export)
// over the library's own TraceRecorder.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "util/telemetry.hpp"

namespace scanbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now()) / 1000.0;
}

struct RunConfig {
  std::string workload;
  /// Run seed (--seed): orders the ops of the seed-fixed list (start
  /// offsets, client jitter). Never changes which ops a pass holds, so
  /// quality and per-pass work are the same for every run seed.
  std::uint64_t run_seed = 1;
  /// Workload seed (--workload-seed): generates the inputs themselves.
  /// 0 = the workload's canonical seed.
  std::uint64_t workload_seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< working files (designs, logs, trace)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: op accounting, metrics (end-to-end or
/// per-layer, depending on the run mode) and human-readable notes.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
};

double median(std::vector<double> v);

/// Nearest-rank percentile, pct in (0, 100].
double percentile(std::vector<double> v, double pct);

/// Op latency summary: the median plus p90 (p80 when p90 would have fewer
/// than ten samples beyond it).
struct LatencySummary {
  std::size_t samples = 0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_pct = 0.0;     ///< which percentile tail_ms is
  std::size_t beyond = 0;    ///< samples strictly above it
};
LatencySummary summarize(std::vector<double> ms);

/// Peak resident set of this process so far, in MiB (VmHWM).
double peak_rss_mb();

/// setup_s is this percentile of a run's set-ups. On a shared host an op
/// runs 1.0x, ~1.2x or ~1.6x its quiet time, each for 10-40 s at a stretch,
/// and the share of each varies from run to run. A median of either ops
/// or set-ups lands in whichever state held half the run and jumped by
/// 30-40% between sets of identical runs; p90 sits in the slowest state
/// whenever that held a tenth of the run, so it moves far less.
constexpr double kSetupPercentile = 90.0;

/// Fills the end-to-end metrics shared by every workload, `setups_s` being
/// every timed set-up of the run.
void add_end_to_end(Report& r, const LatencySummary& lat, double ops_per_s,
                    const std::vector<double>& setups_s, double quality_pct);

/// Exact-double fingerprint of a flow result (hex floats, every field), so
/// two results compare bit for bit as strings.
std::string fingerprint(const scanpower::FlowResult& r);

/// Flow options of one benchmarked design: the Table-I harness tuning
/// with every engine thread knob pinned (never 0 = all cores).
scanpower::FlowOptions pinned_options(const scanpower::Netlist& nl,
                                      int diag_threads);

// ---- trace analysis ----------------------------------------------------------

/// Per-op aggregation of a recorded trace. Every depth-0 event on a shard
/// is one op (a flow op or a service request); its descendants are the
/// op's stages.
struct TraceAnalysis {
  std::size_t ops = 0;
  /// Mean over ops of each span name's per-op total duration, ms.
  std::map<std::string, double> stage_ms;
  /// Mean over ops of each layer's per-op self time, ms (layer = span
  /// name up to the first '.'; self = duration minus direct children).
  std::map<std::string, double> self_ms;
};
TraceAnalysis analyze_trace(const scanpower::TraceRecorder& rec);

/// Chrome trace_event JSON of the recorder's events, each tagged with the
/// id of the op (request) it belongs to: "<shard>.<ordinal of the root
/// span on that shard>", shared by the root and all its child spans.
void write_trace(const scanpower::TraceRecorder& rec, const std::string& path);

// ---- workloads -----------------------------------------------------------------

Report run_flow_atpg(const RunConfig& cfg);
Report run_flow_power(const RunConfig& cfg);
Report run_diag_service(const RunConfig& cfg);

}  // namespace scanbench
