#include "power/packed_leakage.hpp"

#include "atpg/sim_kernels.hpp"
#include "util/assert.hpp"

namespace scanpower {

TernaryBlockSimulator::TernaryBlockSimulator(const Netlist& nl, int words,
                                             SimBackend backend)
    : nl_(&nl), words_(words) {
  SP_CHECK(nl.finalized(), "TernaryBlockSimulator requires a finalized netlist");
  check_block_width("TernaryBlockSimulator", words, "words");
  backend_ = resolve_backend(backend, words);
  kern_ = &sim_kernels(backend_);
  // Sources start X (both planes set), like Simulator::clear_sources().
  p1_.assign(nl.num_gates() * static_cast<std::size_t>(words), ~PatternWord{0});
  p0_.assign(nl.num_gates() * static_cast<std::size_t>(words), ~PatternWord{0});
}

void TernaryBlockSimulator::set_source_all(GateId id, Logic v) {
  PatternWord* one = p1(id);
  PatternWord* zero = p0(id);
  const PatternWord w1 = v != Logic::Zero ? ~PatternWord{0} : 0;
  const PatternWord w0 = v != Logic::One ? ~PatternWord{0} : 0;
  for (int w = 0; w < words_; ++w) {
    one[w] = w1;
    zero[w] = w0;
  }
}

Logic TernaryBlockSimulator::lane_value(GateId id, std::size_t lane) const {
  const std::size_t w = lane / 64;
  const PatternWord bit = PatternWord{1} << (lane % 64);
  const bool b1 = (p1(id)[w] & bit) != 0;
  const bool b0 = (p0(id)[w] & bit) != 0;
  if (b1 && b0) return Logic::X;
  return b1 ? Logic::One : Logic::Zero;
}

void TernaryBlockSimulator::eval() {
  kern_->eval_ternary(*nl_, p1_.data(), p0_.data(), words_);
}

PackedLeakageEvaluator::PackedLeakageEvaluator(const Netlist& nl,
                                               const GateLeakageTables& tables,
                                               SimBackend backend)
    : nl_(&nl), tables_(&tables), backend_(backend) {
  SP_CHECK(nl.finalized(),
           "PackedLeakageEvaluator requires a finalized netlist");
}

void PackedLeakageEvaluator::eval(const BlockSimulator& sim,
                                  std::span<double> leak) const {
  const Netlist& nl = *nl_;
  const GateLeakageTables& tables = *tables_;
  const int W = sim.words();
  const std::size_t lanes = sim.lanes();
  SP_CHECK(leak.size() >= lanes, "packed leakage: output buffer too small");
  for (std::size_t i = 0; i < lanes; ++i) leak[i] = 0.0;

  const SimKernels& kern = sim_kernels(resolve_backend(backend_, W));
  PatternWord srcw[GateLeakageTables::kMaxTableWidth];
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    if (tables.leakless(id)) continue;
    const double* tbl = tables.table(id);
    const std::span<const GateId> fans = nl.fanin_span(id);
    const int k = tables.width(id);
    if (tbl == nullptr) {
      // Wider than the tabulated library: analytic per-lane evaluation.
      SP_CHECK(k <= 20, "packed leakage: gate too wide");
      const GateType t = nl.type(id);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::size_t w = lane / 64;
        const std::size_t b = lane % 64;
        unsigned state = 0;
        for (int j = 0; j < k; ++j) {
          state |= static_cast<unsigned>((sim.block(fans[j])[w] >> b) & 1)
                   << j;
        }
        leak[lane] += tables.model().cell_leakage_na(t, k, state);
      }
      continue;
    }
    // Tabulated gate: per-lane state assembly + table gather, one add per
    // lane per gate (backend kernel; bit-identical accumulation order).
    for (int w = 0; w < W; ++w) {
      for (int j = 0; j < k; ++j) srcw[j] = sim.block(fans[j])[w];
      kern.leak_gather(tbl, 0, srcw, k,
                       leak.data() + static_cast<std::size_t>(w) * 64);
    }
  }
}

void PackedLeakageEvaluator::eval(const TernaryBlockSimulator& sim,
                                  std::span<double> leak) const {
  const Netlist& nl = *nl_;
  const GateLeakageTables& tables = *tables_;
  const int W = sim.words();
  const std::size_t lanes = sim.lanes();
  SP_CHECK(leak.size() >= lanes, "packed leakage: output buffer too small");
  for (std::size_t i = 0; i < lanes; ++i) leak[i] = 0.0;

  const SimKernels& kern = sim_kernels(resolve_backend(backend_, W));
  std::vector<Logic> ins;  // fallback scratch (wide gates only)
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    if (tables.leakless(id)) continue;
    const std::span<const GateId> fans = nl.fanin_span(id);
    const int k = tables.width(id);
    const double* tbl = tables.table(id);
    const double* xtbl = tables.xtable(id);
    SP_CHECK(k <= 20, "packed leakage: gate too wide");
    for (int w = 0; w < W; ++w) {
      // Per fanin: definite-one masks in src[0, k), X masks in src[k, 2k)
      // -- together the (state, xmask) index of the expected table.
      PatternWord src[40];
      PatternWord* const v = src;
      PatternWord* const x = src + k;
      PatternWord any_x = 0;
      for (int j = 0; j < k; ++j) {
        const PatternWord b1 = sim.p1(fans[j])[w];
        const PatternWord b0 = sim.p0(fans[j])[w];
        v[j] = b1 & ~b0;
        x[j] = b1 & b0;
        any_x |= x[j];
      }
      double* out = leak.data() + static_cast<std::size_t>(w) * 64;
      // Table gathers through the backend kernel, one add per lane. The
      // expected table's X-free entries are the state table's doubles, so
      // both gathers give each lane exactly the scalar walk's addend.
      if (any_x == 0 && tbl != nullptr) {
        kern.leak_gather(tbl, 0, v, k, out);
        continue;
      }
      if (xtbl != nullptr) {
        kern.leak_gather(xtbl, 0, src, 2 * k, out);
        continue;
      }
      for (int i = 0; i < 64; ++i) {
        unsigned state = 0;
        unsigned xmask = 0;
        for (int j = 0; j < k; ++j) {
          state |= static_cast<unsigned>((v[j] >> i) & 1) << j;
          xmask |= static_cast<unsigned>((x[j] >> i) & 1) << j;
        }
        if (xmask == 0 && tbl != nullptr) {
          out[i] += tbl[state];
        } else {
          // Wider than the expected tables: the scalar expected-leakage
          // walk.
          ins.resize(static_cast<std::size_t>(k));
          for (int j = 0; j < k; ++j) {
            ins[static_cast<std::size_t>(j)] =
                (xmask >> j) & 1u ? Logic::X
                                  : ((state >> j) & 1u ? Logic::One
                                                       : Logic::Zero);
          }
          out[i] += tables.model().cell_expected_leakage_na(nl.type(id), ins);
        }
      }
    }
  }
}

}  // namespace scanpower
