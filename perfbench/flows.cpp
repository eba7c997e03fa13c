// The two Table-I flow workloads.
//
// flow_atpg  -- one op is a cold ScanSession plus run_flow() on the s344
//               profile, power evaluated on 16 patterns: PODEM-bound
//               (about 90% of the op, much of it proving 256 of 791
//               faults untestable).
// flow_power -- one op is power_report(T) plus run_proposed(T) on a warm
//               s1423 session, T = 8 seeded patterns: no ATPG, mostly
//               scan-shift simulation.
//
// Untraced ops call the session's own entry points. Traced ops replay the
// same stages from the layers' public functions, one span per call, and
// must reproduce the untraced result bit for bit.

#include <memory>
#include <sstream>

#include "bench_common.hpp"
#include "scanbench.hpp"
#include "sim/simulator.hpp"

namespace scanbench {

using namespace scanpower;

namespace {

/// flow_atpg's power evaluations use the first 16 of its 74 test patterns
/// (FlowOptions::max_power_patterns), so PODEM dominates the op.
constexpr std::size_t kAtpgPowerPatterns = 16;
/// Eight patterns keep an op near 70 ms, so a run holds a few hundred ops
/// and op_tail_ms is a real tail.
constexpr std::size_t kPowerPatterns = 8;

const SynthProfile& profile(const std::string& name) {
  for (const SynthProfile& p : iscas89_profiles()) {
    if (p.name == name) return p;
  }
  throw Error("scanbench: unknown profile " + name);
}

/// FlowOptions::max_power_patterns, as ScanSession applies it.
TestSet capped(const TestSet& tests, std::size_t cap) {
  if (cap == 0 || tests.patterns.size() <= cap) return tests;
  TestSet out = tests;
  out.patterns.resize(cap);
  return out;
}

/// Internal values implied by the final control pattern (controlled
/// inputs at their constants, the rest X), as the pin-reorder stage sees
/// them.
std::vector<Logic> implied_scan_values(const Netlist& nl,
                                       const std::vector<Logic>& pi,
                                       const std::vector<Logic>& mux) {
  Simulator sim(nl);
  for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
    sim.set_input(nl.inputs()[k], pi.empty() ? Logic::X : pi[k]);
  }
  for (std::size_t c = 0; c < nl.dffs().size(); ++c) {
    sim.set_state(nl.dffs()[c], mux.empty() ? Logic::X : mux[c]);
  }
  sim.eval();
  return sim.values();
}

FillOptions fill_options(ScanSession& s, bool minimize_leakage) {
  FillOptions fo = s.options().fill;
  fo.minimize_leakage = minimize_leakage;
  if (fo.packed) {
    fo.tables = &s.leakage_tables();
    fo.pool = &s.pool();
  }
  return fo;
}

ScanPowerResult eval_power(ScanSession& s, const Netlist& nl,
                           const TestSet& tests, const std::vector<Logic>& pi,
                           const std::vector<Logic>& mux) {
  const FlowOptions& o = s.options();
  ScanPowerEvaluator ev(nl, s.leakage_model(), o.delay.caps(), o.power);
  return ev.evaluate(capped(tests, o.max_power_patterns), pi, mux, o.scan);
}

/// ScanSession::run_proposed, stage by stage.
ScanPowerResult replay_proposed(ScanSession& s, const TestSet& tests,
                                FlowResult& details, Telemetry* t) {
  const Netlist& nl = s.netlist();
  const FlowOptions& o = s.options();
  const CapacitanceModel& caps = o.delay.caps();
  MuxPlan plan;
  {
    TraceSpan span(t, "scan.mux_plan");
    if (o.insert_muxes) {
      plan = plan_muxes(nl, o.delay, o.mux);
    } else {
      plan.multiplexed.assign(nl.dffs().size(), false);
    }
  }
  FindPatternOptions fopts;
  fopts.justify_backtrack_limit = o.justify_backtrack_limit;
  {
    TraceSpan span(t, "power.observability");
    if (o.use_observability_directive) {
      fopts.observability = &s.observability().values();
    }
  }
  FindPatternResult pat;
  {
    TraceSpan span(t, "core.find_pattern");
    pat = find_controlled_input_pattern(nl, plan, caps, fopts);
  }
  FillResult fill;
  {
    TraceSpan span(t, "core.fill");
    fill = fill_dont_cares_min_leakage(
        nl, s.leakage_model(), pat.pi_pattern, pat.mux_pattern,
        plan.multiplexed, fill_options(s, o.do_min_leakage_fill));
  }
  Netlist tuned;
  ReorderResult reorder;
  {
    TraceSpan span(t, "core.pin_reorder");
    tuned = nl;
    if (o.do_pin_reorder) {
      reorder = reorder_pins_for_leakage(
          tuned, s.leakage_model(),
          implied_scan_values(nl, pat.pi_pattern, pat.mux_pattern));
    }
  }
  ScanPowerResult power;
  {
    TraceSpan span(t, "scan.eval_proposed");
    power = eval_power(s, tuned, tests, pat.pi_pattern, pat.mux_pattern);
  }
  details.mux_plan = std::move(plan);
  details.pattern = std::move(pat);
  details.fill = fill;
  details.reorder = reorder;
  return power;
}

struct AtpgCounts {
  std::size_t patterns = 0, detected = 0, untestable = 0, aborted = 0;
  std::uint64_t fault_sim_blocks = 0;
};

void set_improvements(FlowResult& r) {
  r.dyn_vs_traditional_pct = improvement_pct(r.traditional.dynamic_per_hz_uw,
                                             r.proposed.dynamic_per_hz_uw);
  r.stat_vs_traditional_pct =
      improvement_pct(r.traditional.static_uw, r.proposed.static_uw);
  r.dyn_vs_input_control_pct = improvement_pct(
      r.input_control.dynamic_per_hz_uw, r.proposed.dynamic_per_hz_uw);
  r.stat_vs_input_control_pct =
      improvement_pct(r.input_control.static_uw, r.proposed.static_uw);
}

/// A cold ScanSession plus ScanSession::run_flow, stage by stage.
FlowResult replay_flow(const Netlist& design, const FlowOptions& opts,
                       Telemetry* t, AtpgCounts& counts) {
  std::unique_ptr<ScanSession> s;
  {
    TraceSpan span(t, "core.session_new");
    s = std::make_unique<ScanSession>(design, opts);
  }
  const Netlist& nl = s->netlist();
  const FlowOptions& o = s->options();
  FlowResult res;
  res.circuit = nl.name();
  res.stats = compute_stats(nl);
  TestSet tests;
  {
    TraceSpan span(t, "atpg.generate_tests");
    tests = generate_tests(nl, o.tpg);
  }
  res.num_patterns = tests.patterns.size();
  res.fault_coverage = tests.fault_coverage();
  {
    TraceSpan span(t, "scan.eval_traditional");
    res.traditional = eval_power(*s, nl, tests, {}, {});
  }
  {
    MuxPlan no_mux;
    no_mux.multiplexed.assign(nl.dffs().size(), false);
    FindPatternOptions fopts;
    fopts.justify_backtrack_limit = o.justify_backtrack_limit;
    FindPatternResult pat;
    {
      TraceSpan span(t, "core.find_pattern");
      pat = find_controlled_input_pattern(nl, no_mux, o.delay.caps(), fopts);
    }
    {
      TraceSpan span(t, "core.fill");
      fill_dont_cares_min_leakage(nl, s->leakage_model(), pat.pi_pattern,
                                  pat.mux_pattern, no_mux.multiplexed,
                                  fill_options(*s, false));
    }
    TraceSpan span(t, "scan.eval_input_control");
    res.input_control = eval_power(*s, nl, tests, pat.pi_pattern, {});
  }
  res.proposed = replay_proposed(*s, tests, res, t);
  set_improvements(res);

  counts.patterns = tests.patterns.size();
  counts.detected = tests.detected_faults;
  counts.untestable = tests.untestable_faults;
  counts.aborted = tests.aborted_faults;
  counts.fault_sim_blocks = s->metrics().counter(CounterId::kFaultSimBlocks);
  return res;
}

/// One timed set-up every this many ops. Spreading the set-ups over the
/// run samples the same host states as the ops; a burst of sub-millisecond
/// set-ups at process start swings with whatever the host does in that
/// instant.
constexpr std::uint64_t kSetupEvery = 4;

struct LoopResult {
  std::vector<double> untraced_ms, traced_ms;
  std::vector<double> setup_s;  ///< every timed set-up, the first included
  double wall_s = 0.0;          ///< loop wall time minus the set-ups
};

/// Runs `op(traced)` in a closed loop until the deadline; in trace mode
/// the ops alternate untraced / traced, and at least one op is traced.
/// Every result must equal the first one's fingerprint. `resetup()`
/// repeats the workload's set-up into scratch state and returns its
/// seconds.
template <typename Setup, typename Op>
LoopResult closed_loop(const RunConfig& cfg, Report& r, double first_setup_s,
                       Setup&& resetup, Op&& op) {
  LoopResult out;
  out.setup_s.push_back(first_setup_s);
  double setups_in_loop_s = 0.0;
  std::string reference;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration<double>(cfg.seconds);
  for (std::uint64_t k = 0;; ++k) {
    if (k % kSetupEvery == kSetupEvery - 1) {
      out.setup_s.push_back(resetup());
      setups_in_loop_s += out.setup_s.back();
    }
    const bool traced = cfg.trace && (k % 2 == 1);
    const auto t0 = Clock::now();
    const std::string fp = op(traced);
    const auto t1 = Clock::now();
    (traced ? out.traced_ms : out.untraced_ms).push_back(ms_between(t0, t1));
    ++r.attempted;
    if (reference.empty()) {
      reference = fp;
    } else if (fp != reference) {
      ++r.failed;
    }
    if (t1 >= deadline && (!cfg.trace || !out.traced_ms.empty())) break;
  }
  out.wall_s = seconds_since(start) - setups_in_loop_s;
  return out;
}

void add_stage(Report& r, const TraceAnalysis& a, const std::string& name) {
  const auto it = a.stage_ms.find(name);
  r.add(name + "_ms", it == a.stage_ms.end() ? 0.0 : it->second, "ms");
}

/// Per-layer metrics shared by both flows, from the traced ops.
void add_flow_layers(Report& r, const RunConfig& cfg, const LoopResult& loop,
                     const Telemetry& tel, const TraceAnalysis& a,
                     std::uint64_t shift_cycles) {
  for (const char* s : {"core.session_new", "scan.mux_plan",
                        "core.find_pattern", "core.fill", "core.pin_reorder",
                        "scan.eval_traditional", "scan.eval_input_control",
                        "scan.eval_proposed"}) {
    add_stage(r, a, s);
  }
  double eval_ms = 0.0;
  for (const char* s : {"scan.eval_traditional", "scan.eval_input_control",
                        "scan.eval_proposed"}) {
    const auto it = a.stage_ms.find(s);
    if (it != a.stage_ms.end()) eval_ms += it->second;
  }
  r.add("scan.shift_cycles", static_cast<double>(shift_cycles), "count");
  r.add("scan.ns_per_cycle",
        shift_cycles ? eval_ms * 1e6 / static_cast<double>(shift_cycles) : 0.0,
        "ns");
  for (const char* layer : {"core", "atpg", "power", "scan"}) {
    const auto it = a.self_ms.find(layer);
    r.add(std::string("self.") + layer + "_ms",
          it == a.self_ms.end() ? 0.0 : it->second, "ms");
  }
  const auto root = a.self_ms.find("bench");
  const double overhead = median(loop.traced_ms) - median(loop.untraced_ms);
  r.add("trace.unattributed_ms", root == a.self_ms.end() ? 0.0 : root->second,
        "ms");
  r.add("trace.overhead_ms", overhead, "ms");
  r.add("trace.ops", static_cast<double>(a.ops), "count");
  write_trace(tel.trace, cfg.work_dir + "/" + cfg.workload + ".trace.json");
  std::ostringstream os;
  os << "traced " << loop.traced_ms.size() << " of "
     << loop.traced_ms.size() + loop.untraced_ms.size()
     << " ops; traced op p50 " << median(loop.traced_ms)
     << " ms vs untraced " << median(loop.untraced_ms) << " ms; trace at "
     << cfg.work_dir << "/" << cfg.workload << ".trace.json";
  r.note(os.str());
}

}  // namespace

Report run_flow_atpg(const RunConfig& cfg) {
  Report r;
  struct State {
    Netlist nl;
    FlowOptions opts;
  };
  // Set-up: generate and map the netlist, pin the options.
  const auto setup = [&cfg](State& st) {
    st = State();
    const auto t0 = Clock::now();
    SynthProfile p = profile("s344");
    p.seed = cfg.workload_seed;
    st.nl = map_to_nand_nor_inv(generate_synthetic(p));
    st.opts = pinned_options(st.nl, 1);
    st.opts.max_power_patterns = kAtpgPowerPatterns;
    return seconds_since(t0);
  };
  State live, scratch;
  const double first_setup_s = setup(live);
  const Netlist& nl = live.nl;
  const FlowOptions& opts = live.opts;

  Telemetry tel;
  tel.trace.set_enabled(true);
  AtpgCounts counts;
  double coverage_pct = 0.0;
  std::uint64_t shift_cycles = 0;
  const auto resetup = [&] { return setup(scratch); };
  const LoopResult loop = closed_loop(cfg, r, first_setup_s, resetup,
                                      [&](bool traced) {
    FlowResult res;
    if (traced) {
      TraceSpan op(&tel, "bench.op");
      res = replay_flow(nl, opts, &tel, counts);
    } else {
      ScanSession s(nl, opts);
      res = s.run_flow();
    }
    coverage_pct = 100.0 * res.fault_coverage;
    shift_cycles = res.traditional.cycles + res.input_control.cycles +
                   res.proposed.cycles;
    return fingerprint(res);
  });

  if (!cfg.trace) {
    add_end_to_end(r, summarize(loop.untraced_ms),
                   static_cast<double>(r.attempted) / loop.wall_s,
                   loop.setup_s, coverage_pct);
    return r;
  }
  const TraceAnalysis a = analyze_trace(tel.trace);
  const auto gen = a.stage_ms.find("atpg.generate_tests");
  const double gen_ms = gen == a.stage_ms.end() ? 0.0 : gen->second;
  const std::size_t hard = counts.untestable + counts.aborted;
  r.add("atpg.generate_tests_ms", gen_ms, "ms");
  r.add("atpg.ms_per_hard_fault",
        hard ? gen_ms / static_cast<double>(hard) : 0.0, "ms");
  r.add("atpg.patterns", static_cast<double>(counts.patterns), "count");
  r.add("atpg.detected", static_cast<double>(counts.detected), "count");
  r.add("atpg.untestable", static_cast<double>(counts.untestable), "count");
  r.add("atpg.aborted", static_cast<double>(counts.aborted), "count");
  r.add("atpg.fault_sim_blocks", static_cast<double>(counts.fault_sim_blocks),
        "count");
  add_stage(r, a, "power.observability");
  add_flow_layers(r, cfg, loop, tel, a, shift_cycles);
  return r;
}

Report run_flow_power(const RunConfig& cfg) {
  Report r;
  struct State {
    std::unique_ptr<ScanSession> session;
    TestSet tests;
    double observability_ms = 0.0;
  };
  // Set-up: a warm s1423 session (observability built) and T.
  const auto setup = [&cfg](State& st) {
    st = State();
    const auto t0 = Clock::now();
    const Netlist nl = benchtool::prepare_circuit("s1423");
    st.session = std::make_unique<ScanSession>(nl, pinned_options(nl, 1));
    const auto t1 = Clock::now();
    st.session->observability();
    st.observability_ms = ms_between(t1, Clock::now());
    Rng rng(cfg.workload_seed);
    for (std::size_t i = 0; i < kPowerPatterns; ++i) {
      st.tests.patterns.push_back(random_pattern(st.session->netlist(), rng));
    }
    return seconds_since(t0);
  };
  State live, scratch;
  std::vector<double> obs_ms;
  const double first_setup_s = setup(live);
  obs_ms.push_back(live.observability_ms);
  ScanSession* const session = live.session.get();
  const TestSet& tests = live.tests;

  Telemetry tel;
  tel.trace.set_enabled(true);
  double quality_pct = 0.0;
  std::uint64_t shift_cycles = 0;
  const auto resetup = [&] {
    const double secs = setup(scratch);
    obs_ms.push_back(scratch.observability_ms);
    return secs;
  };
  const LoopResult loop = closed_loop(cfg, r, first_setup_s, resetup,
                                      [&](bool traced) {
    FlowResult res;
    if (traced) {
      TraceSpan op(&tel, "bench.op");
      {
        TraceSpan span(&tel, "scan.eval_traditional");
        res.traditional =
            eval_power(*session, session->netlist(), tests, {}, {});
      }
      res.proposed = replay_proposed(*session, tests, res, &tel);
    } else {
      res.traditional = session->power_report(tests);
      res.proposed = session->run_proposed(tests, &res);
    }
    set_improvements(res);
    quality_pct = res.stat_vs_traditional_pct;
    shift_cycles = res.traditional.cycles + res.proposed.cycles;
    return fingerprint(res);
  });

  if (!cfg.trace) {
    add_end_to_end(r, summarize(loop.untraced_ms),
                   static_cast<double>(r.attempted) / loop.wall_s,
                   loop.setup_s, quality_pct);
    return r;
  }
  // The session is warm, so an op only reads the cached observability;
  // its build cost is a set-up cost here.
  r.add("power.observability_ms", median(obs_ms), "ms");
  r.note("power.observability_ms on flow_power is the set-up build time");
  add_flow_layers(r, cfg, loop, tel, analyze_trace(tel.trace), shift_cycles);
  return r;
}

}  // namespace scanbench
