// GoodBlockCache cached <-> streaming boundary: past kDefaultMaxCachedBlocks
// the cache keeps only geometry and replays each block read into the
// caller's scratch simulator, and the two paths must be bit-identical -- the
// diagnosers score candidates out of whichever side the cap selected, so
// any divergence would silently change diagnoses with the pattern count.
// These tests pin the boundary at exactly the cap and cap +/- 1 blocks
// (including a partial final block) for both a small explicit cap and the
// real default cap.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "atpg/packed_sim.hpp"
#include "atpg/pattern.hpp"
#include "benchgen/benchgen.hpp"
#include "diag/response.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

std::vector<TestPattern> random_patterns(const Netlist& nl, std::size_t n,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TestPattern> pats;
  pats.reserve(n);
  for (std::size_t i = 0; i < n; ++i) pats.push_back(random_pattern(nl, rng));
  return pats;
}

/// Binds (nl, patterns) at `cap` and checks the cached() verdict; every
/// block read through the cache must equal the same block read through a
/// cache bound at cap 0, which streams every block (the contract both
/// diagnosers rely on).
void expect_boundary(const Netlist& nl,
                     const std::vector<TestPattern>& patterns,
                     std::size_t cap, bool expect_cached) {
  GoodBlockCache cache;
  cache.bind(nl, patterns, cap);
  const std::size_t nblocks = (patterns.size() + kSweepLanes - 1) / kSweepLanes;
  ASSERT_EQ(cache.num_blocks(), nblocks);
  EXPECT_EQ(cache.cached(), expect_cached)
      << nblocks << " blocks vs cap " << cap;
  EXPECT_EQ(cache.blocks_cached(), expect_cached ? nblocks : 0u);

  GoodBlockCache streamed;
  streamed.bind(nl, patterns, 0);
  ASSERT_FALSE(streamed.cached());

  // Bit-identity across the boundary: compare full value storage of
  // every block against a streamed replay. On the streaming side the
  // cache under test replays too, into its own scratch, which pins that
  // replays are deterministic.
  std::unique_ptr<BlockSimulator> scratch;
  std::unique_ptr<BlockSimulator> ref_scratch;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const BlockSimulator& got = cache.block(b, scratch);
    EXPECT_EQ(&got == scratch.get(), !expect_cached) << "block " << b;
    EXPECT_EQ(got.storage(), streamed.block(b, ref_scratch).storage())
        << "cached vs streamed divergence in block " << b;
  }
  EXPECT_EQ(cache.cached_reads(), expect_cached ? nblocks : 0u);
  EXPECT_EQ(cache.streamed_reads(), expect_cached ? 0u : nblocks);
}

TEST(GoodBlockCacheTest, SmallCapBoundary) {
  const Netlist nl = make_s27();
  const std::size_t n = kSweepLanes;  // patterns per block
  const std::size_t cap = 4;
  // cap-1, cap, cap+1 whole blocks, plus a partial final block straddling
  // the cap (cap blocks where the last holds a single pattern).
  expect_boundary(nl, random_patterns(nl, n * (cap - 1), 0xb10c), cap, true);
  expect_boundary(nl, random_patterns(nl, n * cap, 0xb10c), cap, true);
  expect_boundary(nl, random_patterns(nl, n * cap + 1, 0xb10c), cap, false);
  expect_boundary(nl, random_patterns(nl, n * (cap + 1), 0xb10c), cap, false);
  expect_boundary(nl, random_patterns(nl, n * (cap - 1) + 1, 0xb10c), cap,
                  true);
}

TEST(GoodBlockCacheTest, DefaultCapBoundary) {
  const Netlist nl = make_s27();
  const std::size_t n = kSweepLanes;
  const std::size_t cap = GoodBlockCache::kDefaultMaxCachedBlocks;
  // s27 is tiny, so even 257 blocks simulate in well under a second; the
  // three shapes bracket the real default boundary.
  expect_boundary(nl, random_patterns(nl, n * (cap - 1) + 7, 0xcafe), cap,
                  true);
  expect_boundary(nl, random_patterns(nl, n * cap, 0xcafe), cap, true);
  expect_boundary(nl, random_patterns(nl, n * cap + 1, 0xcafe), cap, false);
}

TEST(GoodBlockCacheTest, PartialFinalBlock) {
  // A ragged final block ending inside its second word: the padded lanes
  // must not leak into the comparison (storage holds them identically on
  // both paths because load_pattern_block fills them the same way).
  const Netlist nl = make_s27();
  const std::size_t cap = 2;
  expect_boundary(nl, random_patterns(nl, kSweepLanes + 96 + 3, 0x5eed), cap,
                  true);
  expect_boundary(nl, random_patterns(nl, 3 * kSweepLanes - 1, 0x5eed), cap,
                  false);
}

}  // namespace
}  // namespace scanpower
