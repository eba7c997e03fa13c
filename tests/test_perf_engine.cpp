// Cross-checks for the performance engine: CSR netlist views, multi-word
// packed simulation, and thread-parallel fault simulation. Every packed /
// parallel configuration must be bit-identical to the scalar / serial
// reference.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/packed_sim.hpp"
#include "benchgen/benchgen.hpp"
#include "netlist/builder.hpp"
#include "power/packed_leakage.hpp"
#include "sim/simulator.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace scanpower {
namespace {

// ---------- CSR flat views --------------------------------------------------

TEST(NetlistCsr, FlatViewsMirrorPerGateVectors) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const auto fi = nl.fanin_span(id);
    ASSERT_EQ(fi.size(), nl.fanins(id).size());
    for (std::size_t p = 0; p < fi.size(); ++p) EXPECT_EQ(fi[p], nl.fanins(id)[p]);
    const auto fo = nl.fanout_span(id);
    ASSERT_EQ(fo.size(), nl.fanouts(id).size());
    for (std::size_t p = 0; p < fo.size(); ++p) EXPECT_EQ(fo[p], nl.fanouts(id)[p]);
    EXPECT_EQ(nl.types_flat()[id], nl.type(id));
    EXPECT_EQ(nl.levels_flat()[id], nl.level(id));
  }
}

TEST(NetlistCsr, TopoOrderIsLevelSorted) {
  const Netlist nl = make_iscas89_like("s382");
  std::uint32_t prev = 0;
  for (GateId id : nl.topo_order()) {
    EXPECT_GE(nl.level(id), prev);
    prev = nl.level(id);
  }
}

TEST(NetlistCsr, PermuteFaninsUpdatesCsrRow) {
  NetlistBuilder b("perm");
  b.add_input("a");
  b.add_input("c");
  b.add_input("d");
  b.add_gate(GateType::Nand, "g", {"a", "c", "d"});
  b.add_output("g");
  Netlist nl = b.link();
  const GateId g = nl.find("g");
  nl.permute_fanins(g, {2, 0, 1});
  ASSERT_TRUE(nl.finalized());
  const auto fi = nl.fanin_span(g);
  ASSERT_EQ(fi.size(), 3u);
  for (std::size_t p = 0; p < 3; ++p) EXPECT_EQ(fi[p], nl.fanins(g)[p]);
  EXPECT_EQ(fi[0], nl.find("d"));
}

// ---------- multi-word packed simulation ------------------------------------

// Every lane of every block width must reproduce the scalar simulator.
TEST(BlockSim, MatchesScalarSimulatorAllWidths) {
  for (const char* name : {"s344", "s382"}) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(name));
    Simulator scalar(nl);
    for (int words : kBlockWords) {
      BlockSimulator block(nl, words);
      Rng rng(0x5eed + words);
      const std::size_t lanes = block.lanes();
      std::vector<TestPattern> pats;
      for (std::size_t i = 0; i < lanes; ++i) {
        pats.push_back(random_pattern(nl, rng));
      }
      for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
        for (int w = 0; w < words; ++w) {
          PatternWord word = 0;
          for (int j = 0; j < 64; ++j) {
            if (pats[static_cast<std::size_t>(w) * 64 + j].pi[k] == Logic::One) {
              word |= PatternWord{1} << j;
            }
          }
          block.set_source_word(nl.inputs()[k], w, word);
        }
      }
      for (std::size_t k = 0; k < nl.dffs().size(); ++k) {
        for (int w = 0; w < words; ++w) {
          PatternWord word = 0;
          for (int j = 0; j < 64; ++j) {
            if (pats[static_cast<std::size_t>(w) * 64 + j].ppi[k] == Logic::One) {
              word |= PatternWord{1} << j;
            }
          }
          block.set_source_word(nl.dffs()[k], w, word);
        }
      }
      block.eval();
      // Spot-check a spread of lanes (first/last of each word + a stride).
      for (std::size_t lane = 0; lane < lanes; lane += (lane % 64 == 62 ? 1 : 13)) {
        scalar.set_inputs(pats[lane].pi);
        scalar.set_states(pats[lane].ppi);
        scalar.eval_incremental();
        const int w = static_cast<int>(lane / 64);
        const int bit = static_cast<int>(lane % 64);
        for (GateId id = 0; id < nl.num_gates(); ++id) {
          const bool lane_bit = (block.word(id, w) >> bit) & 1;
          ASSERT_EQ(from_bool(lane_bit), scalar.value(id))
              << name << " W=" << words << " lane " << lane << " gate "
              << nl.gate_name(id);
        }
      }
    }
  }
}

/// Runs `fn`, expecting an Error whose message contains `needle`.
template <typename Fn>
void expect_error_naming(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected Error mentioning \"" << needle << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(BlockSim, RejectsInvalidWidth) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  EXPECT_THROW(BlockSimulator(nl, 0), Error);
  // 8, 16 and 32 are retired widths; the message lists kBlockWords.
  for (int w : {8, 16, 32, 3}) {
    const std::string set =
        "words must be 1, 2 or 4 (got " + std::to_string(w) + ")";
    expect_error_naming([&] { BlockSimulator sim(nl, w); },
                        "BlockSimulator: " + set);
    expect_error_naming([&] { TernaryBlockSimulator sim(nl, w); },
                        "TernaryBlockSimulator: " + set);
  }
}

// ---------- fault-sim configuration equivalence -----------------------------

void expect_identical_results(const FaultSimResult& a, const FaultSimResult& b,
                              const char* what) {
  ASSERT_EQ(a.detected, b.detected) << what;
  ASSERT_EQ(a.detecting_pattern, b.detecting_pattern) << what;
  ASSERT_EQ(a.new_detects_per_pattern, b.new_detects_per_pattern) << what;
  ASSERT_EQ(a.num_detected, b.num_detected) << what;
}

// Detection set, first-detecting-pattern indices and per-pattern counts
// must not depend on thread count, and must equal an oracle that never
// crosses a block: one single-pattern run per pattern, where a fault's
// detecting pattern is the lowest index whose run detects it. 600
// patterns span three sweep blocks, the last one ragged (88 lanes).
TEST(FaultSimConfig, AllConfigurationsBitIdentical) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const auto faults = collapse_faults(nl);
  Rng rng(97);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 600; ++i) pats.push_back(random_pattern(nl, rng));
  ASSERT_GT(pats.size(), 2 * kSweepLanes);
  ASSERT_NE(pats.size() % kSweepLanes, 0u);

  FaultSimResult oracle;
  oracle.detected.assign(faults.size(), false);
  oracle.detecting_pattern.assign(faults.size(), FaultSimResult::kNotDetected);
  oracle.new_detects_per_pattern.assign(pats.size(), 0);
  FaultSimulator single(nl);
  for (std::size_t p = 0; p < pats.size(); ++p) {
    const FaultSimResult one =
        single.run(std::span<const TestPattern>(&pats[p], 1), faults);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (!one.detected[fi] || oracle.detected[fi]) continue;
      oracle.detected[fi] = true;
      oracle.detecting_pattern[fi] = p;
      ++oracle.new_detects_per_pattern[p];
      ++oracle.num_detected;
    }
  }
  EXPECT_GT(oracle.num_detected, 0u);
  std::size_t past_first_block = 0;
  for (std::size_t p : oracle.detecting_pattern) {
    if (p != FaultSimResult::kNotDetected && p >= kSweepLanes) {
      ++past_first_block;
    }
  }
  EXPECT_GT(past_first_block, 0u) << "no detection crosses a block boundary";

  for (int threads : {1, 2, 3, 4}) {
    FaultSimulator fsim(nl, FaultSimOptions{.num_threads = threads});
    const FaultSimResult res = fsim.run(pats, faults);
    const std::string what = "T=" + std::to_string(threads);
    expect_identical_results(oracle, res, what.c_str());
  }
}

TEST(FaultSimConfig, InitialDetectedRespectedInParallel) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto faults = collapse_faults(nl);
  Rng rng(11);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 96; ++i) pats.push_back(random_pattern(nl, rng));

  // Mark every other fault as already detected.
  std::vector<bool> initial(faults.size(), false);
  for (std::size_t i = 0; i < initial.size(); i += 2) initial[i] = true;

  FaultSimulator serial(nl, FaultSimOptions{.num_threads = 1});
  FaultSimulator parallel(nl, FaultSimOptions{.num_threads = 4});
  const FaultSimResult a = serial.run(pats, faults, &initial);
  const FaultSimResult b = parallel.run(pats, faults, &initial);
  expect_identical_results(a, b, "initial-detected");
  for (std::size_t i = 0; i < initial.size(); i += 2) {
    EXPECT_FALSE(a.detected[i]);
  }
}

TEST(FaultSimConfig, AllFaultsInitiallyDetectedShortCircuits) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  Rng rng(13);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 8; ++i) pats.push_back(random_pattern(nl, rng));
  std::vector<bool> all(faults.size(), true);
  FaultSimulator fsim(nl, FaultSimOptions{.num_threads = 2});
  const FaultSimResult res = fsim.run(pats, faults, &all);
  EXPECT_EQ(res.num_detected, 0u);
  for (std::size_t p = 0; p < pats.size(); ++p) {
    EXPECT_EQ(res.new_detects_per_pattern[p], 0u);
  }
}

// ---------- thread pool -----------------------------------------------------

TEST(ThreadPoolTest, RunsEveryWorkerIndexOnce) {
  for (int threads : {1, 2, 5}) {
    ThreadPool pool(threads);
    ASSERT_EQ(pool.size(), threads);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(threads));
    for (auto& h : hits) h = 0;
    for (int round = 0; round < 3; ++round) {
      pool.run_on_all([&](int t) { hits[static_cast<std::size_t>(t)]++; });
    }
    for (int t = 0; t < threads; ++t) EXPECT_EQ(hits[static_cast<std::size_t>(t)], 3);
  }
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  constexpr int kN = 10000;
  std::vector<int> data(kN);
  std::iota(data.begin(), data.end(), 1);
  ThreadPool pool(4);
  std::vector<long long> partial(4, 0);
  pool.run_on_all([&](int t) {
    for (int i = t; i < kN; i += 4) partial[static_cast<std::size_t>(t)] += data[static_cast<std::size_t>(i)];
  });
  const long long total = partial[0] + partial[1] + partial[2] + partial[3];
  EXPECT_EQ(total, static_cast<long long>(kN) * (kN + 1) / 2);
}

}  // namespace
}  // namespace scanpower
