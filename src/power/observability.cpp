#include "power/observability.hpp"

#include <algorithm>
#include <memory>

#include "atpg/sim_kernels.hpp"
#include "power/packed_leakage.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace scanpower {

LeakageObservability::LeakageObservability(const Netlist& nl,
                                           const LeakageModel& model,
                                           ObservabilityOptions opts) {
  SP_CHECK(nl.finalized(), "observability requires a finalized netlist");
  obs_.assign(nl.num_gates(), 0.0);
  if (opts.method == ObservabilityMethod::MonteCarlo) {
    compute_monte_carlo(nl, model, opts);
  } else {
    compute_probabilistic(nl, model);
  }
}

void LeakageObservability::compute_monte_carlo(
    const Netlist& nl, const LeakageModel& model,
    const ObservabilityOptions& opts) {
  SP_CHECK(opts.samples > 1, "observability: need at least 2 samples");
  const std::size_t n = nl.num_gates();
  const std::size_t samples = static_cast<std::size_t>(opts.samples);
  constexpr int W = kObservabilityBlockWords;
  const std::size_t lanes = static_cast<std::size_t>(W) * 64;
  const std::size_t nblocks = (samples + lanes - 1) / lanes;
  // Borrow the caller's pool/tables when provided (ScanSession); the
  // sweep is bit-identical for any pool size, so sharing is result-free.
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool_ptr = opts.pool;
  if (pool_ptr == nullptr) {
    owned_pool =
        std::make_unique<ThreadPool>(ThreadPool::resolve_threads(opts.num_threads));
    pool_ptr = owned_pool.get();
  }
  ThreadPool& pool = *pool_ptr;
  const int T = pool.size();

  std::unique_ptr<const GateLeakageTables> owned_tables;
  if (opts.tables == nullptr) {
    owned_tables = std::make_unique<GateLeakageTables>(nl, model);
  }
  const GateLeakageTables& tables =
      opts.tables ? *opts.tables : *owned_tables;
  const PackedLeakageEvaluator leval(nl, tables, opts.backend);
  const SimKernels& kern = sim_kernels(resolve_backend(opts.backend, W));

  // Per-worker simulation state; one block of samples per worker per
  // wave. Block b draws from a generator seeded by (opts.seed, b) alone,
  // and block partials are merged on the caller thread in ascending block
  // order (ordered_block_sweep), so the reduction -- and therefore every
  // observability value -- is bit-identical for any thread count.
  struct Partial {
    std::vector<double> sum1;
    std::vector<std::uint32_t> cnt1;
    double total = 0.0;
  };
  std::vector<Partial> parts(static_cast<std::size_t>(T));
  std::vector<BlockSimulator> sims;
  std::vector<std::vector<double>> leak_buf(static_cast<std::size_t>(T));
  sims.reserve(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    sims.emplace_back(nl, W, opts.backend);
    leak_buf[static_cast<std::size_t>(t)].resize(lanes);
    parts[static_cast<std::size_t>(t)].sum1.resize(n);
    parts[static_cast<std::size_t>(t)].cnt1.resize(n);
  }

  std::vector<double> sum1(n, 0.0);
  std::vector<double> sum0(n, 0.0);
  std::vector<std::uint32_t> cnt1(n, 0);
  double leak_total = 0.0;

  ordered_block_sweep(
      pool, nblocks,
      [&](int t, std::size_t b) {
        Partial& part = parts[static_cast<std::size_t>(t)];
        BlockSimulator& sim = sims[static_cast<std::size_t>(t)];
        Rng rng(block_seed(opts.seed, b));
        for (GateId pi : nl.inputs()) {
          for (int w = 0; w < W; ++w) {
            sim.set_source_word(pi, w, rng.next_u64());
          }
        }
        for (GateId ff : nl.dffs()) {
          for (int w = 0; w < W; ++w) {
            sim.set_source_word(ff, w, rng.next_u64());
          }
        }
        sim.eval();
        double* const leak = leak_buf[static_cast<std::size_t>(t)].data();
        leval.eval(sim, {leak, lanes});

        const std::size_t base = b * lanes;
        const std::size_t batch = std::min(lanes, samples - base);
        PatternWord valid[W];
        for (int w = 0; w < W; ++w) {
          const std::size_t lane0 = static_cast<std::size_t>(w) * 64;
          valid[w] = batch >= lane0 + 64 ? ~PatternWord{0}
                     : batch > lane0 ? (PatternWord{1} << (batch - lane0)) - 1
                                     : 0;
        }
        part.total = 0.0;
        for (std::size_t lane = 0; lane < batch; ++lane) {
          part.total += leak[lane];
        }
        // Per-gate masked-add reduction through the backend kernel
        // (obs_reduce's four-accumulator interleave is the reduction's
        // definition in every backend, so values stay bit-identical).
        for (GateId id = 0; id < n; ++id) {
          double s1 = 0.0;
          std::uint32_t c1 = 0;
          kern.obs_reduce(sim.block(id), valid, leak, W, &s1, &c1);
          part.sum1[id] = s1;
          part.cnt1[id] = c1;
        }
      },
      [&](int t, std::size_t) {
        const Partial& part = parts[static_cast<std::size_t>(t)];
        leak_total += part.total;
        for (GateId id = 0; id < n; ++id) {
          sum1[id] += part.sum1[id];
          sum0[id] += part.total - part.sum1[id];
          cnt1[id] += part.cnt1[id];
        }
      });

  mean_leakage_na_ = leak_total / static_cast<double>(samples);
  for (GateId id = 0; id < n; ++id) {
    const std::uint32_t c1 = cnt1[id];
    const std::uint32_t c0 = static_cast<std::uint32_t>(samples) - c1;
    if (c1 == 0 || c0 == 0) {
      obs_[id] = 0.0;  // line never observed both ways: no preference signal
      continue;
    }
    obs_[id] = sum1[id] / c1 - sum0[id] / c0;
  }
}

std::vector<double> signal_probabilities(const Netlist& nl) {
  std::vector<double> p(nl.num_gates(), 0.5);
  for (GateId id : nl.topo_order()) {
    const Gate& g = nl.gate(id);
    auto pin = [&](std::size_t i) { return p[g.fanins[i]]; };
    switch (g.type) {
      case GateType::Const0: p[id] = 0.0; break;
      case GateType::Const1: p[id] = 1.0; break;
      case GateType::Buf: p[id] = pin(0); break;
      case GateType::Not: p[id] = 1.0 - pin(0); break;
      case GateType::And:
      case GateType::Nand: {
        double prod = 1.0;
        for (std::size_t i = 0; i < g.fanins.size(); ++i) prod *= pin(i);
        p[id] = g.type == GateType::And ? prod : 1.0 - prod;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        double prod = 1.0;
        for (std::size_t i = 0; i < g.fanins.size(); ++i) prod *= 1.0 - pin(i);
        p[id] = g.type == GateType::Nor ? prod : 1.0 - prod;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        double podd = 0.0;
        for (std::size_t i = 0; i < g.fanins.size(); ++i) {
          const double q = pin(i);
          podd = podd * (1.0 - q) + (1.0 - podd) * q;
        }
        p[id] = g.type == GateType::Xor ? podd : 1.0 - podd;
        break;
      }
      case GateType::Mux:
        p[id] = (1.0 - pin(0)) * pin(1) + pin(0) * pin(2);
        break;
      case GateType::Input:
      case GateType::Dff:
        break;  // stays 0.5
    }
  }
  return p;
}

double expected_gate_leakage_na(const LeakageModel& model, GateType type,
                                const std::vector<double>& fanin_probs) {
  const int width = static_cast<int>(fanin_probs.size());
  SP_CHECK(width <= 12, "expected_gate_leakage_na: gate too wide");
  double total = 0.0;
  const unsigned combos = 1u << width;
  for (unsigned pat = 0; pat < combos; ++pat) {
    double prob = 1.0;
    for (int i = 0; i < width; ++i) {
      const double q = fanin_probs[static_cast<std::size_t>(i)];
      prob *= ((pat >> i) & 1u) ? q : (1.0 - q);
    }
    if (prob > 0.0) total += prob * model.cell_leakage_na(type, width, pat);
  }
  return total;
}

void LeakageObservability::compute_probabilistic(const Netlist& nl,
                                                 const LeakageModel& model) {
  const std::vector<double> base_p = signal_probabilities(nl);

  const std::span<const GateType> types = nl.types_flat();
  const std::span<const std::uint32_t> levels = nl.levels_flat();

  // Expected leakage of a gate from current probabilities. `fp_scratch`
  // is hoisted out of the per-gate loop (this runs once per cone gate per
  // source).
  std::vector<double> fp_scratch;
  auto gate_leak = [&](GateId id, const std::vector<double>& p) {
    const GateType t = types[id];
    if (!is_combinational(t) || t == GateType::Const0 ||
        t == GateType::Const1) {
      return 0.0;
    }
    fp_scratch.clear();
    for (GateId f : nl.fanin_span(id)) fp_scratch.push_back(p[f]);
    return expected_gate_leakage_na(model, t, fp_scratch);
  };

  double base_total = 0.0;
  for (GateId id = 0; id < nl.num_gates(); ++id) base_total += gate_leak(id, base_p);
  mean_leakage_na_ = base_total;

  // For each line, force p=1 and p=0, re-propagate through its fanout cone
  // (levels are monotone along combinational edges, so a level-ordered
  // sweep of the cone is a valid evaluation order), and measure the total
  // expected leakage of the gates whose inputs changed.
  std::vector<double> p = base_p;
  std::vector<GateId> cone;
  std::vector<std::uint8_t> in_cone(nl.num_gates(), 0);

  std::vector<GateId> stack_scratch;
  auto collect_cone = [&](GateId src) {
    cone.clear();
    stack_scratch.assign(1, src);
    in_cone[src] = 1;
    while (!stack_scratch.empty()) {
      const GateId id = stack_scratch.back();
      stack_scratch.pop_back();
      cone.push_back(id);
      for (GateId fo : nl.fanout_span(id)) {
        if (!is_combinational(types[fo])) continue;
        if (!in_cone[fo]) {
          in_cone[fo] = 1;
          stack_scratch.push_back(fo);
        }
      }
    }
    std::sort(cone.begin(), cone.end(), [&](GateId a, GateId b) {
      return levels[a] < levels[b];
    });
  };

  std::vector<double> fp;
  auto eval_forced = [&](GateId src, double forced) {
    p[src] = forced;
    // Re-propagate probabilities through the cone (skipping src itself).
    for (GateId id : cone) {
      if (id == src) continue;
      fp.clear();
      for (GateId f : nl.fanin_span(id)) fp.push_back(p[f]);
      // Reuse signal-probability formulas by local evaluation:
      switch (types[id]) {
        case GateType::Buf: p[id] = fp[0]; break;
        case GateType::Not: p[id] = 1.0 - fp[0]; break;
        case GateType::And:
        case GateType::Nand: {
          double prod = 1.0;
          for (double q : fp) prod *= q;
          p[id] = types[id] == GateType::And ? prod : 1.0 - prod;
          break;
        }
        case GateType::Or:
        case GateType::Nor: {
          double prod = 1.0;
          for (double q : fp) prod *= 1.0 - q;
          p[id] = types[id] == GateType::Nor ? prod : 1.0 - prod;
          break;
        }
        case GateType::Xor:
        case GateType::Xnor: {
          double podd = 0.0;
          for (double q : fp) podd = podd * (1.0 - q) + (1.0 - podd) * q;
          p[id] = types[id] == GateType::Xor ? podd : 1.0 - podd;
          break;
        }
        case GateType::Mux:
          p[id] = (1.0 - fp[0]) * fp[1] + fp[0] * fp[2];
          break;
        default:
          break;
      }
    }
    // Affected leakage: gates in the cone plus immediate fanouts of cone
    // members (their input distribution changed even if their own output
    // is outside the cone -- covered because such fanouts are *in* the
    // cone by construction; the only gates with changed inputs outside
    // cone are fanouts of src when src is a source -- also in cone).
    double total = 0.0;
    for (GateId id : cone) total += gate_leak(id, p);
    // Include fanouts of src that are DFFs? They carry no leakage; skip.
    return total;
  };

  for (GateId src = 0; src < nl.num_gates(); ++src) {
    collect_cone(src);
    // Gates whose *inputs* include cone members but are not cone members
    // themselves do not exist (fanouts of cone members are cone members).
    const double l1 = eval_forced(src, 1.0);
    const double l0 = eval_forced(src, 0.0);
    obs_[src] = l1 - l0;
    // Restore probabilities.
    p[src] = base_p[src];
    for (GateId id : cone) {
      p[id] = base_p[id];
      in_cone[id] = 0;
    }
  }
}

}  // namespace scanpower
