#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "scanbench.hpp"
#include "util/json.hpp"

namespace scanbench {

using namespace scanpower;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

LatencySummary summarize(std::vector<double> ms) {
  LatencySummary s;
  s.samples = ms.size();
  if (ms.empty()) return s;
  s.p50_ms = median(ms);
  std::sort(ms.begin(), ms.end());
  // Nearest-rank p90, or p80 when fewer than 100 samples leave p90 without
  // ten beyond it. Higher percentiles follow the host rather than the
  // program: on a full-log diagnosis-service workload, p99 tracked
  // scheduler stalls on a busy four-core host, and its spread over ten
  // identical runs was 20-27% while p50's stayed within 6%. With fewer than 50 samples no rung
  // qualifies and p50 stands.
  const std::size_t n = ms.size();
  s.tail_ms = s.p50_ms;
  s.tail_pct = 50.0;
  s.beyond = n / 2;
  for (const double pct : {80.0, 90.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    if (n - rank < 10) break;
    s.tail_ms = ms[rank - 1];
    s.tail_pct = pct;
    s.beyond = n - rank;
  }
  return s;
}

double peak_rss_mb() {
  // VmHWM rather than getrusage's ru_maxrss: the latter survives execve,
  // so it would report the launching process's peak when that was larger.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

void add_end_to_end(Report& r, const LatencySummary& lat, double ops_per_s,
                    const std::vector<double>& setups_s, double quality_pct) {
  r.add("op_tail_ms", lat.tail_ms, "ms");
  r.add("ops_per_s", ops_per_s, "1/s");
  r.add("setup_s", percentile(setups_s, kSetupPercentile), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("quality_pct", quality_pct, "%");
  std::ostringstream os;
  os << "op_tail_ms is p" << lat.tail_pct << " of " << lat.samples
     << " samples (" << lat.beyond << " beyond it); op p50 " << lat.p50_ms
     << " ms, not a metric";
  r.note(os.str());
  os.str("");
  os << "setup_s is p" << kSetupPercentile << " of " << setups_s.size()
     << " set-ups (median " << median(setups_s) << " s)";
  r.note(os.str());
  const double failed_pct =
      r.attempted ? 100.0 * static_cast<double>(r.failed) /
                        static_cast<double>(r.attempted)
                  : 0.0;
  r.note("failed_pct " + std::to_string(failed_pct) + " (" +
         std::to_string(r.failed) + " of " + std::to_string(r.attempted) +
         " ops failed, were refused or failed the correctness check)");
}

namespace {

void put(std::ostream& os, const ScanPowerResult& p) {
  os << p.dynamic_per_hz_uw << ' ' << p.static_uw << ' '
     << p.mean_toggled_cap_ff << ' ' << p.mean_leakage_na << ' '
     << p.peak_dynamic_per_hz_uw << ' ' << p.peak_leakage_na << ' '
     << p.cycles << ';';
}

template <typename T>
void put_vec(std::ostream& os, const std::vector<T>& v) {
  for (const T& x : v) os << static_cast<int>(x);
  os << ';';
}

}  // namespace

std::string fingerprint(const FlowResult& r) {
  std::ostringstream os;
  os << std::hexfloat << r.circuit << ';';
  const NetlistStats& s = r.stats;
  os << s.num_inputs << ' ' << s.num_outputs << ' ' << s.num_dffs << ' '
     << s.num_comb_gates << ' ' << s.depth << ' ' << s.avg_fanout << ' '
     << s.max_fanout << ';';
  for (std::size_t n : s.by_type) os << n << ' ';
  os << r.num_patterns << ' ' << r.fault_coverage << ';';
  put_vec(os, r.mux_plan.multiplexed);
  os << r.mux_plan.base_critical_delay_ps << ' ' << r.mux_plan.num_multiplexed
     << ';';
  put_vec(os, r.pattern.pi_pattern);
  put_vec(os, r.pattern.mux_pattern);
  put_vec(os, r.pattern.implied_values);
  put_vec(os, r.pattern.transition_nodes);
  os << r.pattern.gates_blocked << ' ' << r.pattern.gates_propagated << ' '
     << r.pattern.transition_lines << ';';
  os << r.fill.best_leakage_na << ' ' << r.fill.first_leakage_na << ' '
     << r.fill.trials << ' ' << r.fill.free_inputs << ';';
  os << r.reorder.gates_considered << ' ' << r.reorder.gates_permuted << ' '
     << r.reorder.leakage_before_na << ' ' << r.reorder.leakage_after_na
     << ';';
  put(os, r.traditional);
  put(os, r.input_control);
  put(os, r.proposed);
  os << r.dyn_vs_traditional_pct << ' ' << r.stat_vs_traditional_pct << ' '
     << r.dyn_vs_input_control_pct << ' ' << r.stat_vs_input_control_pct;
  return os.str();
}

FlowOptions pinned_options(const Netlist& nl, int diag_threads) {
  FlowOptions o = benchtool::tuned_options(compute_stats(nl).num_comb_gates);
  o.tpg.fault_sim.num_threads = 1;
  o.observability.num_threads = 1;
  o.fill.num_threads = 1;
  o.diag.num_threads = diag_threads;
  return o;
}

// ---- trace analysis ------------------------------------------------------------

namespace {

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

TraceAnalysis analyze_trace(const TraceRecorder& rec) {
  const std::vector<TraceEvent> events = rec.events();
  // events() is sorted by (shard, start, depth): an op's root precedes its
  // descendants, and every span's parent is the latest earlier event one
  // level up on the same shard.
  struct Op {
    std::map<std::string, double> stage, self;
  };
  std::vector<Op> ops;
  std::vector<std::size_t> open;  // event index per depth on this shard
  std::vector<double> self_ms(events.size(), 0.0);
  std::vector<std::size_t> op_of(events.size(), 0);
  int shard = -1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.shard != shard) {
      shard = e.shard;
      open.clear();
    }
    const std::size_t d = static_cast<std::size_t>(e.depth);
    if (d == 0) ops.emplace_back();
    if (ops.empty() || d > open.size()) continue;  // orphan: no root yet
    open.resize(d);
    open.push_back(i);
    op_of[i] = ops.size() - 1;
    const double ms = static_cast<double>(e.dur_us) / 1000.0;
    self_ms[i] += ms;
    if (d > 0) self_ms[open[d - 1]] -= ms;
    ops.back().stage[e.name] += ms;
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!ops.empty()) ops[op_of[i]].self[layer_of(events[i].name)] += self_ms[i];
  }

  // Means, not medians: the layers' self times then add up to the mean op
  // time exactly.
  TraceAnalysis a;
  a.ops = ops.size();
  if (ops.empty()) return a;
  const double n = static_cast<double>(ops.size());
  for (const Op& op : ops) {
    for (const auto& [k, v] : op.stage) a.stage_ms[k] += v / n;
    for (const auto& [k, v] : op.self) a.self_ms[k] += v / n;
  }
  return a;
}

void write_trace(const TraceRecorder& rec, const std::string& path) {
  std::ofstream out(path);
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.begin_array("traceEvents");
  std::map<int, std::uint64_t> roots;  // depth-0 spans seen per shard
  for (const TraceEvent& e : rec.events()) {
    if (e.depth == 0) ++roots[e.shard];
    w.begin_object();
    w.field("name", e.name);
    w.field("ph", "X");
    w.field("ts", e.start_us);
    w.field("dur", e.dur_us);
    w.field("pid", 1);
    w.field("tid", e.shard);
    w.begin_object("args");
    w.field("depth", e.depth);
    w.field("op", std::to_string(e.shard) + "." + std::to_string(roots[e.shard]));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

}  // namespace scanbench
