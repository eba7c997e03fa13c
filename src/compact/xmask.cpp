#include "compact/xmask.hpp"

#include <algorithm>

#include "power/packed_leakage.hpp"
#include "util/assert.hpp"

namespace scanpower {

namespace {

/// Ternary analogue of load_pattern_block: X bits stay X; invalid lanes
/// of a partial final block are loaded as known 0 (they are never read).
void load_ternary_block(const Netlist& nl,
                        std::span<const TestPattern> patterns,
                        std::size_t base, TernaryBlockSimulator& sim) {
  const int words = sim.words();
  const std::size_t batch =
      patterns.size() > base ? std::min(sim.lanes(), patterns.size() - base) : 0;
  const auto load = [&](const std::vector<GateId>& sources, bool use_pi) {
    for (std::size_t k = 0; k < sources.size(); ++k) {
      for (int wi = 0; wi < words; ++wi) {
        const std::size_t lane0 = static_cast<std::size_t>(wi) * 64;
        PatternWord ones = 0;
        PatternWord xs = 0;
        const std::size_t count =
            batch > lane0 ? std::min<std::size_t>(64, batch - lane0) : 0;
        for (std::size_t j = 0; j < count; ++j) {
          const TestPattern& pat = patterns[base + lane0 + j];
          const Logic v = use_pi ? pat.pi[k] : pat.ppi[k];
          if (v == Logic::One) ones |= PatternWord{1} << j;
          if (v == Logic::X) xs |= PatternWord{1} << j;
        }
        sim.p1(sources[k])[wi] = ones | xs;
        sim.p0(sources[k])[wi] = ~ones | xs;
      }
    }
  };
  load(nl.inputs(), /*use_pi=*/true);
  load(nl.dffs(), /*use_pi=*/false);
}

}  // namespace

std::vector<TestPattern> zero_filled_patterns(
    std::span<const TestPattern> patterns) {
  if (std::all_of(patterns.begin(), patterns.end(),
                  [](const TestPattern& p) { return p.fully_specified(); })) {
    return {};
  }
  std::vector<TestPattern> filled(patterns.begin(), patterns.end());
  for (TestPattern& p : filled) {
    for (Logic& v : p.pi) {
      if (v == Logic::X) v = Logic::Zero;
    }
    for (Logic& v : p.ppi) {
      if (v == Logic::X) v = Logic::Zero;
    }
  }
  return filled;
}

XMaskPlan::XMaskPlan(const Netlist& nl, const ObservationPoints& points,
                     std::span<const TestPattern> patterns, int window,
                     SimBackend backend) {
  SP_CHECK(window >= 1, "XMaskPlan: window must be at least 1 pattern");
  num_points_ = points.size();
  num_windows_ = (patterns.size() + static_cast<std::size_t>(window) - 1) /
                 static_cast<std::size_t>(window);
  words_per_point_ = (patterns.size() + 63) / 64;

  // Fully specified patterns cannot produce X anywhere: empty plan, no
  // sweep.
  if (std::all_of(patterns.begin(), patterns.end(),
                  [](const TestPattern& p) { return p.fully_specified(); })) {
    return;
  }

  // Per point, the packed X mask over patterns (lane p = 1 iff the good
  // machine evaluates the observed gate to X under pattern p).
  std::vector<PatternWord> xwords(num_points_ * words_per_point_, 0);
  TernaryBlockSimulator sim(nl, kSweepWords, backend);
  const std::size_t lanes = sim.lanes();
  for (std::size_t base = 0; base < patterns.size(); base += lanes) {
    const std::size_t batch = std::min(lanes, patterns.size() - base);
    load_ternary_block(nl, patterns, base, sim);
    sim.eval();
    const std::size_t word0 = base / 64;
    const std::size_t nwords = (batch + 63) / 64;
    for (std::size_t op = 0; op < num_points_; ++op) {
      const GateId g = points.observed_gate(op);
      const PatternWord* p1 = sim.p1(g);
      const PatternWord* p0 = sim.p0(g);
      PatternWord* row = xwords.data() + op * words_per_point_ + word0;
      for (std::size_t w = 0; w < nwords; ++w) row[w] = p1[w] & p0[w];
    }
  }

  // Window verdicts and packed keep rows. A window's lanes are the
  // contiguous pattern range [w * window, min((w+1) * window, n)).
  masked_.assign(num_points_ * num_windows_, 0);
  keep_.assign(num_points_ * words_per_point_, ~PatternWord{0});
  const auto window_range_or = [&](const PatternWord* row, std::size_t p0,
                                   std::size_t p1) {
    PatternWord acc = 0;
    for (std::size_t w = p0 / 64; w <= (p1 - 1) / 64; ++w) {
      const std::size_t lo = std::max(p0, w * 64) - w * 64;
      const std::size_t hi = std::min(p1, (w + 1) * 64) - w * 64;
      PatternWord m = ~PatternWord{0};
      if (hi < 64) m = (PatternWord{1} << hi) - 1;
      m &= ~((PatternWord{1} << lo) - 1);
      acc |= row[w] & m;
    }
    return acc;
  };
  for (std::size_t op = 0; op < num_points_; ++op) {
    const PatternWord* xrow = xwords.data() + op * words_per_point_;
    PatternWord* keep = keep_.data() + op * words_per_point_;
    for (std::size_t win = 0; win < num_windows_; ++win) {
      const std::size_t p0 = win * static_cast<std::size_t>(window);
      const std::size_t p1 =
          std::min(p0 + static_cast<std::size_t>(window), patterns.size());
      if (window_range_or(xrow, p0, p1) == 0) continue;
      masked_[op * num_windows_ + win] = 1;
      ++num_masked_;
      for (std::size_t p = p0; p < p1; ++p) {
        keep[p / 64] &= ~(PatternWord{1} << (p % 64));
      }
    }
  }
}

}  // namespace scanpower
