// Multi-tenant service layer: DesignContext sharing, SessionPool LRU
// eviction and the DiagnosisQueue, under concurrency.
//
// House rule under test: every diagnosis is bit-identical across
// num_threads AND across tenancy -- N threads sharing one
// published DesignContext through a SessionPool must return byte-equal
// results to isolated per-tenant sequential sessions, even while the
// pool evicts contexts mid-flight. The suite runs under TSan in CI
// (ctest -R test_session_pool), so any mutation after publish -- a lazy
// cone miss, an unsynchronized tally -- surfaces as a race, not a flake.

#include <gtest/gtest.h>

#include <barrier>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "atpg/fault.hpp"
#include "benchgen/benchgen.hpp"
#include "core/session.hpp"
#include "core/session_pool.hpp"
#include "core/work_queue.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

std::vector<TestPattern> random_patterns(const Netlist& nl, int n,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TestPattern> pats;
  pats.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pats.push_back(random_pattern(nl, rng));
  return pats;
}

void expect_same_result(const DiagnosisResult& a, const DiagnosisResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.num_faults, b.num_faults) << what;
  EXPECT_EQ(a.num_candidates, b.num_candidates) << what;
  EXPECT_EQ(a.num_dropped, b.num_dropped) << what;
  EXPECT_EQ(a.num_failures, b.num_failures) << what;
  EXPECT_EQ(a.num_windows, b.num_windows) << what;
  EXPECT_EQ(a.num_failing_windows, b.num_failing_windows) << what;
  ASSERT_EQ(a.ranked.size(), b.ranked.size()) << what;
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    ASSERT_EQ(a.ranked[i].fault, b.ranked[i].fault) << what << " @" << i;
    ASSERT_EQ(a.ranked[i].fault_index, b.ranked[i].fault_index) << what;
    ASSERT_EQ(a.ranked[i].tfsf, b.ranked[i].tfsf) << what << " @" << i;
    ASSERT_EQ(a.ranked[i].tfsp, b.ranked[i].tfsp) << what << " @" << i;
    ASSERT_EQ(a.ranked[i].tpsf, b.ranked[i].tpsf) << what << " @" << i;
    ASSERT_EQ(a.ranked[i].dropped, b.ranked[i].dropped) << what << " @" << i;
  }
}

FlowOptions make_opts(int threads) {
  FlowOptions o;
  o.diag.num_threads = threads;
  return o;
}

/// One design's fixture: netlist, patterns, mixed evidence (full failure
/// logs and MISR signature logs) and the per-tenant sequential reference
/// results from an isolated owning ScanSession.
struct Fixture {
  Netlist nl;
  std::vector<TestPattern> pats;
  std::vector<Evidence> evidence;
  std::vector<DiagnosisResult> reference;
};

Fixture make_fixture(const std::string& name, int num_patterns,
                     std::uint64_t seed, const FlowOptions& opts) {
  Fixture fx;
  fx.nl = map_to_nand_nor_inv(make_circuit(name));
  fx.pats = random_patterns(fx.nl, num_patterns, seed);
  const auto faults = collapse_faults(fx.nl);
  ScanSession ref(fx.nl, opts);
  ref.bind_patterns(fx.pats);
  for (std::size_t i = 0; i < 6; ++i) {
    const Fault& f = faults[(i * 37 + 5) % faults.size()];
    if (i % 3 == 2) {
      fx.evidence.emplace_back(ref.inject_compacted(f));
    } else {
      fx.evidence.emplace_back(ref.inject(f));
    }
  }
  for (const Evidence& ev : fx.evidence) {
    fx.reference.push_back(ref.diagnose(ev));
  }
  return fx;
}

// ---------- DesignContext ---------------------------------------------------

TEST(DesignContextTest, ValidatesOptionsLikeASession) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  for (int t : {-1, -4}) {
    FlowOptions opts;
    opts.diag.num_threads = t;
    try {
      DesignContext ctx(nl, opts);
      FAIL() << "expected Error for num_threads=" << t;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("diag.num_threads"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("DesignContext"),
                std::string::npos);
    }
  }
}

TEST(DesignContextTest, HashDistinguishesDesignsAndIsStable) {
  const Netlist s27 = map_to_nand_nor_inv(make_s27());
  const Netlist s344 = map_to_nand_nor_inv(make_iscas89_like("s344"));
  EXPECT_EQ(DesignContext::hash_design(s27), DesignContext::hash_design(s27));
  EXPECT_NE(DesignContext::hash_design(s27),
            DesignContext::hash_design(s344));
  DesignContext ctx{Netlist(s27)};
  EXPECT_EQ(ctx.design_hash(), DesignContext::hash_design(s27));
}

TEST(DesignContextTest, TenantSessionMatchesOwningSession) {
  const FlowOptions opts = make_opts(2);
  Fixture fx = make_fixture("s344", 72, 0xc1a0, opts);
  auto ctx = std::make_shared<const DesignContext>(Netlist(fx.nl), opts);
  ScanSession tenant(ctx, opts);
  EXPECT_EQ(&tenant.netlist(), &ctx->netlist());
  tenant.bind_patterns(fx.pats);
  for (std::size_t i = 0; i < fx.evidence.size(); ++i) {
    expect_same_result(tenant.diagnose(fx.evidence[i]), fx.reference[i],
                       "tenant log " + std::to_string(i));
  }
  // The one-argument form inherits the context's options.
  ScanSession inherited(ctx);
  EXPECT_EQ(inherited.options().diag.num_threads, 2);
}

// The context's leakage model keys its tables, so a tenant asking for
// other leakage_params would silently get the context's power figures
// instead of the isolated session's. Construction must refuse, naming the
// knob.
TEST(DesignContextTest, TenantRejectsForeignLeakageParams) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  FlowOptions hot;
  hot.leakage_params.nmos_off_weak *= 3.0;
  hot.leakage_params.pmos_off_parallel *= 2.0;

  // The params matter: an isolated session under them reports different
  // static power than one under the defaults.
  TestSet ts;
  ts.patterns = random_patterns(nl, 8, 0x1ea7);
  ScanSession isolated(Netlist(nl), hot);
  ScanSession plain(Netlist(nl), FlowOptions{});
  ASSERT_NE(isolated.power_report(ts).static_uw,
            plain.power_report(ts).static_uw);

  auto ctx = std::make_shared<const DesignContext>(Netlist(nl), FlowOptions{});
  try {
    ScanSession tenant(ctx, hot);
    FAIL() << "tenant accepted leakage_params the context was not built with";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("ScanSession"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("leakage_params"), std::string::npos);
  }
  // Matching params: the tenant agrees with the isolated session.
  auto hot_ctx = std::make_shared<const DesignContext>(Netlist(nl), hot);
  ScanSession tenant(hot_ctx, hot);
  EXPECT_EQ(tenant.power_report(ts).static_uw,
            isolated.power_report(ts).static_uw);
}

// Cones build on the first cones() call under std::call_once. K tenants
// racing into their first diagnosis over one fresh, unwarmed context must
// each get the owning session's exact results (TSan covers the build).
TEST(DesignContextTest, ConcurrentFirstUseOfUnwarmedContext) {
  for (int threads : {1, 4}) {
    const FlowOptions opts = make_opts(threads);
    const Fixture fx = make_fixture("s344", 64, 0xc0de, opts);
    auto ctx = std::make_shared<const DesignContext>(Netlist(fx.nl), opts);
    constexpr int kTenants = 4;
    std::barrier start(kTenants);
    std::vector<std::thread> tenants;
    for (int k = 0; k < kTenants; ++k) {
      tenants.emplace_back([&, k] {
        start.arrive_and_wait();
        ScanSession tenant(ctx, opts);
        tenant.bind_patterns(fx.pats);
        for (std::size_t i = 0; i < fx.evidence.size(); ++i) {
          expect_same_result(tenant.diagnose(fx.evidence[i]), fx.reference[i],
                             "tenant " + std::to_string(k) + " log " +
                                 std::to_string(i) + " T" +
                                 std::to_string(threads));
        }
      });
    }
    for (std::thread& t : tenants) t.join();
  }
}

// ---------- SessionPool -----------------------------------------------------

TEST(SessionPoolTest, SharesContextsAndEvictsLru) {
  const Netlist s27 = map_to_nand_nor_inv(make_s27());
  const Netlist s344 = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const Netlist s382 = map_to_nand_nor_inv(make_iscas89_like("s382"));
  SessionPool pool(/*capacity=*/2);

  auto a = pool.acquire(s27);
  auto a2 = pool.acquire(s27);
  EXPECT_EQ(a.get(), a2.get()) << "hit must share the built context";
  auto b = pool.acquire(s344);
  EXPECT_EQ(pool.size(), 2u);

  // Third design past capacity: the LRU entry (s27) is evicted, but the
  // in-flight shared_ptr stays valid.
  auto c = pool.acquire(s382);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(a->netlist().name(), "s27");
  auto a3 = pool.acquire(s27);  // rebuilt: a fresh context
  EXPECT_NE(a3.get(), a.get());
}

TEST(SessionPoolTest, RejectsZeroCapacity) {
  EXPECT_THROW(SessionPool(0), Error);
}

// The acceptance test: N client threads x M designs hammer one
// SessionPool with mixed full/compacted evidence while eviction churns
// contexts mid-flight (capacity < M); every result must be byte-equal to
// the isolated per-tenant sequential reference, at every thread count.
TEST(SessionPoolTest, ConcurrentTenantsMatchSequentialAtEveryThreadCount) {
  const char* kDesigns[] = {"s27", "s344", "s382"};
  for (int threads : {1, 4}) {
    const FlowOptions opts = make_opts(threads);
    std::vector<Fixture> fx;
    for (int d = 0; d < 3; ++d) {
      fx.push_back(make_fixture(kDesigns[d], 48 + 16 * d,
                                0xf00d + static_cast<std::uint64_t>(d),
                                opts));
    }
    SessionPool pool(/*capacity=*/2);  // < M designs: eviction mid-flight
    constexpr int kClients = 6;
    constexpr int kRounds = 3;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int r = 0; r < kRounds; ++r) {
          const Fixture& f = fx[static_cast<std::size_t>(c + r) % fx.size()];
          // acquire churns the LRU; tenant sessions outlive eviction.
          auto ctx = pool.acquire(f.nl, opts);
          ScanSession tenant(ctx, opts);
          tenant.bind_patterns(f.pats);
          for (std::size_t i = 0; i < f.evidence.size(); ++i) {
            expect_same_result(tenant.diagnose(f.evidence[i]),
                               f.reference[i],
                               f.nl.name() + " client " + std::to_string(c) +
                                   " T" + std::to_string(threads));
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
}

// ---------- DiagnosisQueue --------------------------------------------------

TEST(DiagnosisQueueTest, SubmitMatchesSequentialAcrossDesigns) {
  const FlowOptions opts = make_opts(2);
  std::vector<Fixture> fx;
  fx.push_back(make_fixture("s27", 40, 0x9a9a, opts));
  fx.push_back(make_fixture("s344", 64, 0x7b7b, opts));

  Telemetry telem;
  DiagnosisQueue::Options qo;
  qo.max_batch = 4;  // force multi-batch coalescing
  DiagnosisQueue queue(qo, &telem);
  std::vector<DiagnosisQueue::DesignKey> keys;
  for (const Fixture& f : fx) keys.push_back(queue.open(f.nl, opts, f.pats));

  // Interleave submissions across designs from several client threads;
  // futures come back per request, so ordering is trivially preserved.
  struct PendingRef {
    std::future<DiagnosisResult> fut;
    const DiagnosisResult* ref;
    std::string what;
  };
  std::vector<PendingRef> pending;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t d = 0; d < fx.size(); ++d) {
      for (std::size_t i = 0; i < fx[d].evidence.size(); ++i) {
        pending.push_back({queue.submit(keys[d], fx[d].evidence[i]),
                           &fx[d].reference[i],
                           fx[d].nl.name() + " log " + std::to_string(i)});
      }
    }
  }
  for (PendingRef& p : pending) {
    expect_same_result(p.fut.get(), *p.ref, p.what);
  }
  // Quiesce through drain() (the documented barrier) before reading
  // depth.
  queue.drain();
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(DiagnosisQueueTest, BadLogPoisonsOnlyItsOwnFuture) {
  const FlowOptions opts = make_opts(1);
  Fixture fx = make_fixture("s27", 32, 0xbad, opts);

  DiagnosisQueue queue;
  const auto key = queue.open(fx.nl, opts, fx.pats);
  FailureLog bad;
  bad.num_patterns = 99;  // does not match the bound set
  auto good_before = queue.submit(key, fx.evidence[0]);
  auto poisoned = queue.submit(key, Evidence(bad));
  auto good_after = queue.submit(key, fx.evidence[1]);
  expect_same_result(good_before.get(), fx.reference[0], "before bad log");
  EXPECT_THROW(poisoned.get(), Error);
  expect_same_result(good_after.get(), fx.reference[1], "after bad log");
}

TEST(DiagnosisQueueTest, SubmitRejectsUnknownDesign) {
  DiagnosisQueue queue;
  EXPECT_THROW(queue.submit(0xdead, Evidence(FailureLog{})), Error);
}

}  // namespace
}  // namespace scanpower
