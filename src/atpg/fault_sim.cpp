#include "atpg/fault_sim.hpp"

#include <algorithm>
#include <bit>

#include "atpg/packed_sim.hpp"
#include "util/assert.hpp"

namespace scanpower {

namespace {

/// Work-counter slot attributing swept blocks to the resolved backend.
CounterId backend_blocks_counter(SimBackend b) {
  switch (b) {
    case SimBackend::Avx2: return CounterId::kBackendBlocksAvx2;
    case SimBackend::Avx512: return CounterId::kBackendBlocksAvx512;
    default: return CounterId::kBackendBlocksScalar;
  }
}

}  // namespace

std::vector<std::uint8_t> observable_net_mask(const Netlist& nl) {
  std::vector<std::uint8_t> observable(nl.num_gates(), 0);
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    if (nl.is_output(id)) observable[id] = 1;
  }
  for (GateId dff : nl.dffs()) observable[nl.fanins(dff)[0]] = 1;
  return observable;
}

void FaultConeEvaluator::init(const Netlist& nl, int block_words,
                              SimBackend backend) {
  SP_CHECK(nl.finalized(), "FaultConeEvaluator requires a finalized netlist");
  check_block_words("FaultConeEvaluator", block_words, "block_words");
  nl_ = &nl;
  words_ = block_words;
  backend_ = resolve_backend(backend, block_words);
  kern_ = &sim_kernels(backend_);
  const std::size_t n = nl.num_gates();
  faulty_.assign(n * static_cast<std::size_t>(block_words), 0);
  touched_.assign(n, 0);
  active_.clear();
  cone_cache_.assign(n, {});
  cone_cached_.assign(n, 0);
  seen_.assign(n, 0);
}

const std::vector<GateId>& FaultConeEvaluator::cone(GateId site) {
  if (cone_cached_[site]) return cone_cache_[site];
  // DFS over combinational fanout; site included. Sorted by level so a
  // single sweep evaluates fanins before fanouts. `seen_` is reusable
  // scratch: every entry set below is a member of `out` and is cleared
  // before returning.
  const Netlist& nl = *nl_;
  const std::span<const GateType> types = nl.types_flat();
  const std::span<const std::uint32_t> levels = nl.levels_flat();
  std::vector<GateId> out;
  std::vector<GateId> stack{site};
  seen_[site] = 1;
  while (!stack.empty()) {
    const GateId id = stack.back();
    stack.pop_back();
    out.push_back(id);
    for (GateId fo : nl.fanout_span(id)) {
      if (!is_combinational(types[fo])) continue;
      if (!seen_[fo]) {
        seen_[fo] = 1;
        stack.push_back(fo);
      }
    }
  }
  for (GateId id : out) seen_[id] = 0;
  std::sort(out.begin(), out.end(), [&](GateId a, GateId b) {
    return levels[a] != levels[b] ? levels[a] < levels[b] : a < b;
  });
  cone_cache_[site] = std::move(out);
  cone_cached_[site] = 1;
  return cone_cache_[site];
}

FaultSimulator::FaultSimulator(const Netlist& nl, FaultSimOptions opts)
    : nl_(&nl), opts_(opts) {
  SP_CHECK(nl.finalized(), "FaultSimulator requires a finalized netlist");
  check_block_words("fault_sim", opts_.block_words, "block_words");
  opts_.num_threads = ThreadPool::resolve_threads(opts_.num_threads);
  observable_ = observable_net_mask(nl);

  pool_ = std::make_unique<ThreadPool>(opts_.num_threads);
  workers_.resize(static_cast<std::size_t>(pool_->size()));
  for (Worker& w : workers_) {
    w.eval.init(nl, opts_.block_words, opts_.backend);
  }
}

FaultSimulator::~FaultSimulator() = default;

template <int W>
void FaultSimulator::sweep_faults(const BlockSimulator& good, std::size_t base,
                                  std::size_t batch,
                                  std::span<const Fault> faults,
                                  std::span<const std::size_t> live,
                                  FaultSimResult& res,
                                  std::vector<std::uint8_t>& detected_u8) {
  // Lane-validity mask for this block (the last block of a pattern set may
  // only partially fill its words).
  const PackedBlock<W> mask = lane_validity_mask<W>(batch);

  const int num_workers = pool_->size();
  pool_->run_on_all([&](int t) {
    Worker& wk = workers_[static_cast<std::size_t>(t)];
    // Round-robin fault partition: fault live[i] belongs to worker
    // i % num_workers, which is stable across batches and thread
    // schedules -- every per-fault result slot has exactly one writer.
    for (std::size_t li = static_cast<std::size_t>(t); li < live.size();
         li += static_cast<std::size_t>(num_workers)) {
      const std::size_t fi = live[li];
      if (detected_u8[fi]) continue;
      PackedBlock<W> detect{};
      wk.eval.propagate<W>(good, faults[fi], mask, observable_,
                           [&](GateId, const PatternWord* diff) {
                             for (int w = 0; w < W; ++w) detect.w[w] |= diff[w];
                           });

      if (detect.any()) {
        detected_u8[fi] = 1;
        std::size_t lane = 0;
        for (int w = 0; w < W; ++w) {
          if (detect.w[w] != 0) {
            lane = static_cast<std::size_t>(w) * 64 +
                   static_cast<std::size_t>(std::countr_zero(detect.w[w]));
            break;
          }
        }
        const std::size_t pat = base + lane;
        res.detecting_pattern[fi] = pat;
        wk.new_detects[pat]++;
        wk.num_detected++;
      }
    }
  });
}

FaultSimResult FaultSimulator::run(std::span<const TestPattern> patterns,
                                   std::span<const Fault> faults,
                                   const std::vector<bool>* initial_detected) {
  const Netlist& nl = *nl_;
  FaultSimResult res;
  res.detected.assign(faults.size(), false);
  res.detecting_pattern.assign(faults.size(), FaultSimResult::kNotDetected);
  res.new_detects_per_pattern.assign(patterns.size(), 0);
  if (initial_detected) {
    SP_CHECK(initial_detected->size() == faults.size(),
             "fault_sim: initial_detected size mismatch");
  }

  // Live fault universe: everything not already detected by earlier calls.
  std::vector<std::size_t> live;
  live.reserve(faults.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (initial_detected && (*initial_detected)[fi]) continue;
    live.push_back(fi);
  }

  const int W = opts_.block_words;
  const std::size_t lanes = static_cast<std::size_t>(W) * 64;
  BlockSimulator good(nl, W, opts_.backend);
  std::vector<std::uint8_t> detected_u8(faults.size(), 0);
  for (Worker& w : workers_) {
    w.new_detects.assign(patterns.size(), 0);
    w.num_detected = 0;
  }
  std::size_t num_detected = 0;
  std::uint64_t num_blocks = 0;

  for (std::size_t base = 0; base < patterns.size(); base += lanes) {
    // Fault dropping may empty the live list mid-run: then the remaining
    // blocks have nothing to compare against, so skip their good-machine
    // evaluation and stop early.
    if (num_detected == live.size()) break;
    ++num_blocks;
    const std::size_t batch = std::min(lanes, patterns.size() - base);

    load_pattern_block(nl, patterns, base, good);
    good.eval();

    dispatch_words(W, [&](auto w) {
      sweep_faults<decltype(w)::value>(good, base, batch, faults, live, res,
                                       detected_u8);
    });
    num_detected = 0;
    for (const Worker& w : workers_) num_detected += w.num_detected;
  }

  // Deterministic merge: per-fault slots were single-writer; per-pattern
  // counters are summed over workers (order-independent).
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (detected_u8[fi]) res.detected[fi] = true;
  }
  res.num_detected = num_detected;
  for (const Worker& w : workers_) {
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      res.new_detects_per_pattern[p] += w.new_detects[p];
    }
  }

  if (Telemetry* telem = opts_.telemetry) {
    telem->metrics.add(0, CounterId::kFaultSimRuns, 1);
    telem->metrics.add(0, CounterId::kFaultSimBlocks, num_blocks);
    telem->metrics.add(0, CounterId::kFaultSimDetected, res.num_detected);
    telem->metrics.set_gauge(GaugeId::kSimBackend,
                             static_cast<std::int64_t>(good.backend()));
    telem->metrics.add(0, backend_blocks_counter(good.backend()), num_blocks);
    for (std::size_t t = 0; t < workers_.size(); ++t) {
      flush_sweep_stats(telem, static_cast<int>(t), workers_[t].eval);
    }
  }
  return res;
}

double fault_coverage(const Netlist& nl, std::span<const TestPattern> patterns,
                      FaultSimOptions opts) {
  const std::vector<Fault> faults = collapse_faults(nl);
  FaultSimulator fsim(nl, opts);
  const FaultSimResult res = fsim.run(patterns, faults);
  return faults.empty() ? 0.0
                        : static_cast<double>(res.num_detected) /
                              static_cast<double>(faults.size());
}

}  // namespace scanpower
