#include "scan/scan_sim.hpp"

#include <algorithm>
#include <bit>

#include "power/packed_leakage.hpp"
#include "util/assert.hpp"

namespace scanpower {

ShiftProtocol::ShiftProtocol(const ScanChainOrder& order, int num_chains)
    : order_(&order), k_(static_cast<std::size_t>(num_chains)) {
  SP_CHECK(num_chains >= 1, "shift protocol: num_chains must be >= 1");
  SP_CHECK(order.is_permutation(), "shift protocol: invalid chain order");
  const std::size_t len = order.order.size();
  cycles_ = (len + k_ - 1) / k_;
}

void ShiftProtocol::build_stream(std::span<const Logic> ppi,
                                 std::span<const Logic> prev,
                                 std::vector<Logic>& stream) const {
  const std::size_t len = order_->order.size();
  SP_CHECK(ppi.size() == len && prev.size() == len,
           "shift protocol: chain size mismatch");
  const std::size_t padded = cycles_ * k_;
  stream.assign(padded + len, Logic::Zero);
  for (std::size_t pos = 0; pos < len; ++pos) {
    stream[pos] = ppi[order_->order[pos]];
    stream[padded + pos] = prev[pos];
  }
}

std::vector<Logic> simulate_chain_loading(const ScanChainOrder& order,
                                          std::span<const Logic> ppi,
                                          int num_chains, Logic initial) {
  const ShiftProtocol shift(order, num_chains);
  std::vector<Logic> stream;
  shift.build_stream(ppi, std::vector<Logic>(ppi.size(), initial), stream);
  stream.resize(ppi.size());  // the window after the last shift: offset 0
  return stream;
}

namespace {

/// Writes `v` into one lane of a source's ternary planes (both planes
/// cleared beforehand).
inline void put_lane(PatternWord* p1, PatternWord* p0, std::size_t lane,
                     Logic v) {
  const PatternWord bit = PatternWord{1} << (lane % 64);
  if (v != Logic::Zero) p1[lane / 64] |= bit;
  if (v != Logic::One) p0[lane / 64] |= bit;
}

/// Words per sweep; the W = 1, 2, 4 timings are in BENCH_scan.json
/// ("sweep_width"). W = 4 is fastest or tied from 592 cycles up (the
/// 8-pattern s1423 session, where the three widths are within 5%, to
/// BM_ScanPowerEval's 64 patterns on s1423, s5378 and s9234). A session
/// of 128 cycles or fewer takes the narrowest width that holds it: at 74
/// cycles W = 4 runs twice as long as W <= 2, three quarters padding.
int sweep_words(std::size_t cycles) {
  int words = 1;
  while (words < 4 && static_cast<std::size_t>(words) * 64 < cycles) words *= 2;
  return words;
}

/// One scan-shift session evaluated as packed lanes; see scan_sim.hpp.
class PackedShiftSession {
 public:
  PackedShiftSession(const Netlist& nl, const GateLeakageTables& tables,
                     std::span<const double> loads, const TestSet& tests,
                     const ShiftProtocol& shift,
                     std::span<const Logic> pi_control,
                     std::span<const Logic> mux_control,
                     const ScanSimOptions& opts)
      : nl_(nl),
        loads_(loads),
        tests_(tests),
        shift_(shift),
        order_(opts.chain_order),
        initial_(opts.initial_state),
        per_pattern_(shift.cycles() + (opts.include_capture_cycles ? 1 : 0)),
        sim_(nl, sweep_words(tests.patterns.size() * per_pattern_)),
        leak_eval_(nl, tables),
        pi_control_(pi_control),
        mux_control_(mux_control) {}

  void run(PowerEstimator& power) {
    const std::size_t total = tests_.patterns.size() * per_pattern_;
    if (total == 0) return;
    capture_responses();
    const std::size_t lanes = sim_.lanes();
    std::vector<double> leak(lanes);
    std::vector<double> toggled(lanes);
    // Each gate's value in the previous block's last lane. Block 0 starts
    // from zero planes: its lane 0 is the first observed cycle, whose
    // toggles the fold ignores.
    carry1_.assign(nl_.num_gates(), 0);
    carry0_.assign(nl_.num_gates(), 0);
    for (std::size_t first = 0; first < total; first += lanes) {
      const std::size_t used = std::min(lanes, total - first);
      load_cycles(first, used);
      sim_.eval();
      leak_eval_.eval(sim_, leak);
      toggles(toggled);
      for (std::size_t lane = 0; lane < used; ++lane) {
        power.fold_cycle(toggled[lane], leak[lane]);
      }
    }
  }

 private:
  std::size_t chain_len() const { return nl_.dffs().size(); }
  GateId cell_at(std::size_t pos) const {
    return nl_.dffs()[order_->order[pos]];
  }

  /// Empties every source lane, ready for put_lane().
  void clear_sources() {
    const int words = sim_.words();
    for (const std::vector<GateId>* ids : {&nl_.inputs(), &nl_.dffs()}) {
      for (GateId id : *ids) {
        std::fill_n(sim_.p1(id), words, PatternWord{0});
        std::fill_n(sim_.p0(id), words, PatternWord{0});
      }
    }
  }

  /// Applies pattern `n` (PIs and cell-indexed PPIs) to lane `lane`: the
  /// state of its capture cycle.
  void put_capture(std::size_t n, std::size_t lane) {
    const TestPattern& t = tests_.patterns[n];
    for (std::size_t i = 0; i < t.pi.size(); ++i) {
      const GateId id = nl_.inputs()[i];
      put_lane(sim_.p1(id), sim_.p0(id), lane, t.pi[i]);
    }
    for (std::size_t d = 0; d < t.ppi.size(); ++d) {
      const GateId id = nl_.dffs()[d];
      put_lane(sim_.p1(id), sim_.p0(id), lane, t.ppi[d]);
    }
  }

  /// Captured response of every pattern but the last (whose response is
  /// never shifted out), cell-indexed, one pattern per lane.
  void capture_responses() {
    const std::size_t len = chain_len();
    const std::size_t count = tests_.patterns.size() - 1;
    responses_.assign(count * len, Logic::X);
    if (len == 0) return;
    const std::size_t lanes = sim_.lanes();
    for (std::size_t first = 0; first < count; first += lanes) {
      const std::size_t used = std::min(lanes, count - first);
      clear_sources();
      for (std::size_t lane = 0; lane < used; ++lane) {
        put_capture(first + lane, lane);
      }
      sim_.eval();
      for (std::size_t d = 0; d < len; ++d) {
        const GateId next = nl_.fanin_span(nl_.dffs()[d])[0];
        for (std::size_t lane = 0; lane < used; ++lane) {
          responses_[(first + lane) * len + d] =
              sim_.lane_value(next, lane);
        }
      }
    }
  }

  /// Switches the shift-cycle state to pattern `n`: the chain stream
  /// (pattern n shifted in over the previous response) and the PI values
  /// held during its shift.
  void enter_pattern(std::size_t n) {
    const std::size_t len = chain_len();
    prev_.assign(len, initial_);
    if (n > 0) {
      const Logic* r = responses_.data() + (n - 1) * len;
      for (std::size_t pos = 0; pos < len; ++pos) {
        prev_[pos] = r[order_->order[pos]];
      }
    }
    shift_.build_stream(tests_.patterns[n].ppi, prev_, stream_);
    const std::size_t num_pi = nl_.inputs().size();
    shift_pi_.assign(num_pi, Logic::Zero);
    for (std::size_t i = 0; i < num_pi; ++i) {
      const Logic ctrl = pi_control_.empty() ? Logic::X : pi_control_[i];
      if (ctrl != Logic::X) {
        shift_pi_[i] = ctrl;
      } else if (n > 0) {
        shift_pi_[i] = tests_.patterns[n - 1].pi[i];
      }
    }
    pattern_ = n;
  }

  /// Source planes of observed cycles [first, first + used) as lanes.
  void load_cycles(std::size_t first, std::size_t used) {
    clear_sources();
    const std::size_t len = chain_len();
    for (std::size_t lane = 0; lane < used; ++lane) {
      const std::size_t cycle = first + lane;
      const std::size_t n = cycle / per_pattern_;
      const std::size_t t = cycle % per_pattern_;
      if (t == shift_.cycles()) {  // capture cycle: muxes transparent
        put_capture(n, lane);
        continue;
      }
      if (n != pattern_) enter_pattern(n);
      for (std::size_t i = 0; i < shift_pi_.size(); ++i) {
        const GateId id = nl_.inputs()[i];
        put_lane(sim_.p1(id), sim_.p0(id), lane, shift_pi_[i]);
      }
      const Logic* window = stream_.data() + shift_.offset(t + 1);
      for (std::size_t pos = 0; pos < len; ++pos) {
        const Logic mux =
            mux_control_.empty() ? Logic::X : mux_control_[order_->order[pos]];
        const GateId id = cell_at(pos);
        put_lane(sim_.p1(id), sim_.p0(id), lane,
                 mux == Logic::X ? window[pos] : mux);
      }
    }
  }

  /// toggled[lane] = weighted toggles of the lane against the previous
  /// lane, gates summed in ascending id as weighted_toggles does.
  void toggles(std::span<double> toggled) {
    std::fill(toggled.begin(), toggled.end(), 0.0);
    const int words = sim_.words();
    for (GateId id = 0; id < nl_.num_gates(); ++id) {
      const PatternWord* a1 = sim_.p1(id);
      const PatternWord* a0 = sim_.p0(id);
      PatternWord c1 = carry1_[id];
      PatternWord c0 = carry0_[id];
      carry1_[id] = static_cast<std::uint8_t>(a1[words - 1] >> 63);
      carry0_[id] = static_cast<std::uint8_t>(a0[words - 1] >> 63);
      const double full = loads_[id];
      if (full == 0.0) continue;  // adds nothing to any lane
      const double half = 0.5 * full;
      for (int w = 0; w < words; ++w) {
        const PatternWord b1 = (a1[w] << 1) | c1;
        const PatternWord b0 = (a0[w] << 1) | c0;
        c1 = a1[w] >> 63;
        c0 = a0[w] >> 63;
        const PatternWord diff = (a1[w] ^ b1) | (a0[w] ^ b0);
        if (diff == 0) continue;
        const PatternWord x = (a1[w] & a0[w]) | (b1 & b0);
        double* out = toggled.data() + static_cast<std::size_t>(w) * 64;
        for (PatternWord m = diff & ~x; m != 0; m &= m - 1) {
          out[std::countr_zero(m)] += full;
        }
        for (PatternWord m = diff & x; m != 0; m &= m - 1) {
          out[std::countr_zero(m)] += half;
        }
      }
    }
  }

  const Netlist& nl_;
  std::span<const double> loads_;
  const TestSet& tests_;
  const ShiftProtocol& shift_;
  const ScanChainOrder* order_;
  Logic initial_;
  std::size_t per_pattern_;  ///< observed cycles per pattern
  TernaryBlockSimulator sim_;
  PackedLeakageEvaluator leak_eval_;
  std::span<const Logic> pi_control_;
  std::span<const Logic> mux_control_;
  std::vector<Logic> responses_;  ///< pattern-major, cell-indexed
  std::vector<std::uint8_t> carry1_;
  std::vector<std::uint8_t> carry0_;
  std::size_t pattern_ = static_cast<std::size_t>(-1);
  std::vector<Logic> prev_;
  std::vector<Logic> stream_;
  std::vector<Logic> shift_pi_;
};

/// Checked before the leakage tables walk the netlist.
const Netlist& require_finalized(const Netlist& nl) {
  SP_CHECK(nl.finalized(), "ScanPowerEvaluator requires a finalized netlist");
  return nl;
}

}  // namespace

ScanPowerEvaluator::ScanPowerEvaluator(const Netlist& nl,
                                       const LeakageModel& leakage,
                                       const CapacitanceModel& caps,
                                       PowerConfig config)
    : nl_(&require_finalized(nl)),
      leakage_(&leakage),
      caps_(&caps),
      config_(config),
      tables_(nl, leakage) {}

ScanPowerResult ScanPowerEvaluator::evaluate(const TestSet& tests,
                                             std::span<const Logic> pi_control,
                                             std::span<const Logic> mux_control,
                                             const ScanSimOptions& opts) {
  const Netlist& nl = *nl_;
  const std::size_t num_pi = nl.inputs().size();
  const std::size_t chain_len = nl.dffs().size();
  SP_CHECK(pi_control.empty() || pi_control.size() == num_pi,
           "evaluate: pi_control size mismatch");
  SP_CHECK(mux_control.empty() || mux_control.size() == chain_len,
           "evaluate: mux_control size mismatch");
  // Chain position -> dffs() index. Default: netlist order (the paper's
  // "no scan cell reordering" configuration).
  const ScanChainOrder default_order = ScanChainOrder::identity(chain_len);
  ScanSimOptions resolved = opts;
  if (resolved.chain_order == nullptr) resolved.chain_order = &default_order;
  SP_CHECK(resolved.chain_order->order.size() == chain_len,
           "evaluate: chain order size mismatch");
  const ShiftProtocol shift(*resolved.chain_order, opts.num_chains);
  for (const TestPattern& test : tests.patterns) {
    SP_CHECK(test.pi.size() == num_pi && test.ppi.size() == chain_len,
             "evaluate: pattern size mismatch");
  }

  PowerEstimator power(nl, *leakage_, *caps_, config_);
  PackedShiftSession(nl, tables_, power.weights(), tests, shift, pi_control,
                     mux_control, resolved)
      .run(power);

  ScanPowerResult res;
  res.dynamic_per_hz_uw = power.dynamic_per_hz_uw();
  res.static_uw = power.static_uw();
  res.mean_toggled_cap_ff = power.mean_toggled_cap_ff();
  res.mean_leakage_na = power.mean_leakage_na();
  res.peak_dynamic_per_hz_uw = power.peak_dynamic_per_hz_uw();
  res.peak_leakage_na = power.peak_leakage_na();
  res.cycles = power.cycles_observed();
  return res;
}

}  // namespace scanpower
