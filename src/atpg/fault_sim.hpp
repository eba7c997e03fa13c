#pragma once
// Parallel-pattern, cone-restricted stuck-at fault simulation (PPSFP).
//
// Patterns are packed 64*W per block (W words of 64 bit lanes, W
// runtime-selectable from kBlockWords); for each live fault only the fanout
// cone of the fault site is re-evaluated against the good machine, and
// detection is checked at the observable points inside the cone (primary
// outputs and DFF D pins -- the full-scan response).
//
// The per-fault cone propagation lives in FaultConeEvaluator, a reusable
// worker-local engine shared with the diagnosis subsystem (src/diag/):
// fault simulation reduces its sink calls to a detect word, diagnosis
// records which observation points differ.
//
// The still-undetected fault list is partitioned round-robin across a
// reusable worker pool. Each worker owns its own evaluator (faulty-value /
// touched scratch and cone-cache shard), so the parallel section is
// write-shared only on per-fault result slots (each fault belongs to
// exactly one worker). Results are bit-identical for every (block width,
// thread count) configuration: a fault's detecting pattern is the lowest
// lane of the first detecting block, and per-pattern new-detect counts
// are merged as sums of per-worker counters.

#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/packed_sim.hpp"
#include "atpg/pattern.hpp"
#include "atpg/sim_kernels.hpp"
#include "netlist/netlist.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace scanpower {

/// Byte mask over gates: 1 iff the gate's net is an observable point of
/// the full-scan response (primary output, or driver of a DFF D pin).
std::vector<std::uint8_t> observable_net_mask(const Netlist& nl);

/// Reusable worker-local engine for packed single-fault evaluation: owns
/// the faulty-machine scratch and a lazily built cache of level-sorted
/// combinational fanout cones. One instance per worker thread; instances
/// never share mutable state, so concurrent propagate() calls on distinct
/// evaluators are race-free.
class FaultConeEvaluator {
 public:
  FaultConeEvaluator() = default;

  /// Binds the evaluator to a finalized netlist, block width and kernel
  /// backend. May be called again to rebind; all scratch is reset.
  void init(const Netlist& nl, int block_words,
            SimBackend backend = SimBackend::Auto);

  int block_words() const { return words_; }
  /// The resolved kernel backend (never Auto; valid after init()).
  SimBackend backend() const { return backend_; }

  /// Level-sorted combinational fanout cone of a fault site, site
  /// included (cached per evaluator).
  const std::vector<GateId>& cone(GateId site);

  /// Cheap always-on sweep tallies, accumulated by propagate() as plain
  /// adds (never a registry write on the per-gate path). Consumers flush
  /// them into a MetricsRegistry with take_stats() -- serially, in
  /// ascending worker order -- after a run.
  struct SweepStats {
    std::uint64_t calls = 0;        ///< propagate() invocations
    std::uint64_t unexcited = 0;    ///< died before sweeping a cone
    std::uint64_t cone_gates = 0;   ///< summed cone sizes of swept cones
    std::uint64_t active_gates = 0; ///< gates actually re-evaluated dirty
    std::uint64_t aborts = 0;       ///< sweeps cut short by a bool sink
  };
  /// Returns the tallies since the last call and resets them.
  SweepStats take_stats() {
    SweepStats s = stats_;
    stats_ = SweepStats{};
    return s;
  }

  /// Evaluates fault `f` against the good-machine block: seeds the faulty
  /// machine at the site, sweeps the site's cone sparsely, and calls
  /// sink(gate, diff) for every gate with observable[gate] != 0 whose
  /// faulty value differs from the good machine in a valid lane. `diff`
  /// points at W lane-masked XOR-difference words (faulty ^ good).
  ///
  /// Special case: a fault on the D branch of a scan cell (f.pin >= 0 on
  /// a Dff gate) is observed at that cell's capture point and nowhere
  /// else; the sink then receives the DFF's own gate id (bypassing the
  /// `observable` filter, which covers nets, not capture branches).
  ///
  /// A sink returning bool may abort the sweep: returning false stops the
  /// cone evaluation for this fault (used by the diagnosis scoring
  /// early-exit). Void-returning sinks always sweep the full cone.
  ///
  /// W must equal the init() width.
  template <int W, typename Sink>
  void propagate(const BlockSimulator& good, const Fault& f,
                 const PackedBlock<W>& mask,
                 std::span<const std::uint8_t> observable, Sink&& sink);

 private:
  const Netlist* nl_ = nullptr;
  int words_ = 0;
  SimBackend backend_ = SimBackend::Auto;  ///< resolved by init()
  const SimKernels* kern_ = nullptr;       ///< backend kernel table
  std::vector<PatternWord> faulty_;   ///< num_gates * W faulty-machine words
  std::vector<std::uint8_t> touched_; ///< gate's faulty value differs from good
  std::vector<GateId> active_;        ///< touched gates of the current fault
  std::vector<PatternWord> ins_;      ///< scratch for pin-forced site eval

  // Cone cache: lazily built, level-sorted combinational fanout cones.
  std::vector<std::vector<GateId>> cone_cache_;
  std::vector<std::uint8_t> cone_cached_;
  std::vector<std::uint8_t> seen_;  ///< reusable DFS scratch (all-zero between calls)

  SweepStats stats_;
};

struct FaultSimResult {
  static constexpr std::size_t kNotDetected = static_cast<std::size_t>(-1);
  std::vector<bool> detected;                       ///< per fault
  std::vector<std::size_t> detecting_pattern;       ///< first detecting pattern or kNotDetected
  std::vector<std::uint32_t> new_detects_per_pattern;
  std::size_t num_detected = 0;
};

struct FaultSimOptions {
  /// Pattern words per simulation block: 64*block_words patterns per
  /// sweep. Must be in kBlockWords (packed_sim.hpp).
  int block_words = 4;
  /// Worker count for the per-fault sweep. 1 = serial (no threads
  /// spawned); 0 = hardware concurrency.
  int num_threads = 1;
  /// Kernel backend; Auto = best available. Results are bit-identical
  /// across backends.
  SimBackend backend = SimBackend::Auto;
  /// Optional metrics/trace scope (not owned; nullptr = no telemetry).
  Telemetry* telemetry = nullptr;
};

class FaultSimulator {
 public:
  explicit FaultSimulator(const Netlist& nl, FaultSimOptions opts = {});
  ~FaultSimulator();

  const FaultSimOptions& options() const { return opts_; }

  /// Simulates `patterns` (must be fully specified) against `faults`.
  /// Faults already marked detected in `initial_detected` (optional,
  /// same size as faults) are skipped (fault dropping across calls).
  FaultSimResult run(std::span<const TestPattern> patterns,
                     std::span<const Fault> faults,
                     const std::vector<bool>* initial_detected = nullptr);

 private:
  /// Per-worker mutable state for the parallel fault sweep.
  struct Worker {
    FaultConeEvaluator eval;
    std::vector<std::uint32_t> new_detects;  ///< per pattern, merged serially
    std::size_t num_detected = 0;
  };

  template <int W>
  void sweep_faults(const BlockSimulator& good, std::size_t base,
                    std::size_t batch, std::span<const Fault> faults,
                    std::span<const std::size_t> live, FaultSimResult& res,
                    std::vector<std::uint8_t>& detected_u8);

  const Netlist* nl_;
  FaultSimOptions opts_;
  std::vector<std::uint8_t> observable_;  ///< PO or drives a DFF D pin
  std::vector<Worker> workers_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Convenience: fault coverage of a pattern set over the collapsed list.
double fault_coverage(const Netlist& nl, std::span<const TestPattern> patterns,
                      FaultSimOptions opts = {});

/// Drains one evaluator's sweep tallies (resetting them) into a telemetry
/// scope and returns them. Callers drain their workers serially in
/// ascending worker order, each into its own shard.
inline FaultConeEvaluator::SweepStats flush_sweep_stats(
    Telemetry* t, int shard, FaultConeEvaluator& eval) {
  const FaultConeEvaluator::SweepStats s = eval.take_stats();
  if (t != nullptr) {
    t->metrics.add(shard, CounterId::kSweepCalls, s.calls);
    t->metrics.add(shard, CounterId::kSweepUnexcited, s.unexcited);
    t->metrics.add(shard, CounterId::kSweepConeGates, s.cone_gates);
    t->metrics.add(shard, CounterId::kSweepActiveGates, s.active_gates);
    t->metrics.add(shard, CounterId::kSweepAborts, s.aborts);
  }
  return s;
}

// ---- FaultConeEvaluator::propagate (template body) -------------------------

template <int W, typename Sink>
void FaultConeEvaluator::propagate(const BlockSimulator& good, const Fault& f,
                                   const PackedBlock<W>& mask,
                                   std::span<const std::uint8_t> observable,
                                   Sink&& sink) {
  SP_ASSERT(nl_ != nullptr && W == words_,
            "FaultConeEvaluator: propagate width mismatch");
  const Netlist& nl = *nl_;
  const std::span<const GateType> types = nl.types_flat();
  PatternWord* const faulty = faulty_.data();
  std::uint8_t* const touched = touched_.data();

  // Sinks may return bool (false = stop sweeping this fault's cone).
  auto call_sink = [&sink](GateId g, const PatternWord* d) -> bool {
    if constexpr (std::is_invocable_r_v<bool, Sink&, GateId,
                                        const PatternWord*> &&
                  !std::is_void_v<
                      std::invoke_result_t<Sink&, GateId,
                                           const PatternWord*>>) {
      return static_cast<bool>(sink(g, d));
    } else {
      sink(g, d);
      return true;
    }
  };

  ++stats_.calls;
  if (f.pin >= 0 && types[f.gate] == GateType::Dff) {
    // Fault on the D branch of a scan cell: directly observed at that
    // cell's capture point only.
    const PatternWord* good_d = good.block(nl.fanin_span(f.gate)[0]);
    const PatternWord forced = f.stuck_at ? ~PatternWord{0} : 0;
    PatternWord diff[W];
    PatternWord any = 0;
    for (int w = 0; w < W; ++w) {
      diff[w] = (good_d[w] ^ forced) & mask.w[w];
      any |= diff[w];
    }
    if (any != 0) {
      (void)call_sink(f.gate, static_cast<const PatternWord*>(diff));
    } else {
      ++stats_.unexcited;
    }
    return;
  }

  const GateId site = f.gate;
  // Seed the faulty machine at the site.
  PatternWord site_val[W];
  if (f.pin < 0) {
    const PatternWord forced = f.stuck_at ? ~PatternWord{0} : 0;
    for (int w = 0; w < W; ++w) site_val[w] = forced;
  } else {
    // Input-pin fault: re-evaluate the site gate with that one pin
    // forced. Positional (a driver may feed several pins), so the
    // word-wise generic evaluator is used; this runs once per fault,
    // not per cone gate.
    const std::span<const GateId> fan = nl.fanin_span(site);
    ins_.resize(fan.size());
    const PatternWord forced = f.stuck_at ? ~PatternWord{0} : 0;
    for (int w = 0; w < W; ++w) {
      for (std::size_t p = 0; p < fan.size(); ++p) {
        ins_[p] = static_cast<int>(p) == f.pin ? forced : good.block(fan[p])[w];
      }
      site_val[w] = eval_type_packed(types[site], ins_);
    }
  }
  const PatternWord* good_site = good.block(site);
  PatternWord excited = 0;
  for (int w = 0; w < W; ++w) {
    excited |= (site_val[w] ^ good_site[w]) & mask.w[w];
  }
  if (excited == 0) {  // fault not excited by any valid lane
    ++stats_.unexcited;
    return;
  }

  PatternWord* const site_block = faulty + static_cast<std::size_t>(site) * W;
  for (int w = 0; w < W; ++w) site_block[w] = site_val[w];
  touched[site] = 1;
  PatternWord diff[W];
  if (observable[site]) {
    PatternWord any = 0;
    for (int w = 0; w < W; ++w) {
      diff[w] = (site_val[w] ^ good_site[w]) & mask.w[w];
      any |= diff[w];
    }
    if (any != 0 && !call_sink(site, static_cast<const PatternWord*>(diff))) {
      touched[site] = 0;
      ++stats_.aborts;
      ++stats_.active_gates;
      return;
    }
  }
  // Sweep the cone in level order, sparsely, through the backend's
  // cone_sweep kernel: `touched` marks gates whose faulty value actually
  // differs from the good machine, so a gate with no touched fanin is
  // identical to the good machine and is skipped without evaluation.
  // Most fault effects die within a few levels, which turns the O(cone)
  // sweep into an O(active frontier) sweep with cheap byte-load skip
  // checks.
  const std::vector<GateId>& cone_gates = cone(site);
  stats_.cone_gates += cone_gates.size();
  active_.resize(cone_gates.size() + 1);
  active_[0] = site;

  ConeSweepArgs args;
  args.nl = &nl;
  args.good = good.storage().data();
  args.faulty = faulty;
  args.touched = touched;
  args.cone = cone_gates.data();
  args.cone_size = cone_gates.size();
  args.site = site;
  args.mask = mask.w.data();
  args.observable = observable.data();
  args.sink = [](void* ctx, GateId g, const PatternWord* d) -> bool {
    return (*static_cast<decltype(call_sink)*>(ctx))(g, d);
  };
  args.sink_ctx = &call_sink;
  args.active = active_.data();
  args.active_count = 1;  // the pre-seeded site
  kern_->cone_sweep(args, W);

  if (args.aborted) ++stats_.aborts;
  stats_.active_gates += args.active_count;
  for (std::size_t i = 0; i < args.active_count; ++i) {
    touched[active_[i]] = 0;
  }
}

}  // namespace scanpower
