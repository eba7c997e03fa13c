#pragma once
// SessionPool: shared DesignContext registry with LRU eviction.
//
// A diagnosis service sees a stream of (design, evidence) requests where
// the design set is small but churns: a handful of hot designs, a long
// tail of cold ones. A DesignContext is the one piece worth sharing
// (collapsed faults, cones, tables: about 0.1 / 0.7 / 10 ms on s344 /
// s1423 / s9234 in a Release build, most of it the cones, which build on
// first tenant use rather than in acquire()), so the pool keys contexts by
// the structural design hash and hands out shared_ptrs:
//
//   SessionPool pool(/*capacity=*/8);
//   auto ctx = pool.acquire(netlist, options);   // hit: cheap; miss: build
//   ScanSession session(ctx);                    // per-tenant, cheap
//
// Eviction is LRU past the capacity knob and only drops the pool's own
// reference: in-flight sessions keep their context alive through the
// shared_ptr, so eviction can never invalidate running work. Builds run
// under the pool lock -- two concurrent first-requests for the same
// design would otherwise race to duplicate the most expensive object in
// the system; serializing them is the cheaper failure mode and keeps the
// "one context per design" invariant trivially true.
//
// Telemetry (optional, pool-scoped): sessions.pool_{hits,misses,
// evictions}, sessions.ctx_builds, sessions.ctx_build_us and the
// sessions.pool_size gauge.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "core/design_context.hpp"

namespace scanpower {

class SessionPool {
 public:
  /// `capacity` bounds resident contexts (>= 1); `telemetry` (optional,
  /// borrowed, must outlive the pool) receives the pool counters.
  explicit SessionPool(std::size_t capacity = kDefaultCapacity,
                       Telemetry* telemetry = nullptr);

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// One resident context per design by default: a diagnosis server
  /// typically multiplexes a few hot designs, and each context holds the
  /// full cone cache, so the knob trades memory for rebuild latency.
  static constexpr std::size_t kDefaultCapacity = 4;

  /// Returns the shared context for this design, building (and caching)
  /// it on first sight. The hit path compares only the structural hash;
  /// `opts` is used (and validated) on the miss path as the context's
  /// build options, so callers multiplexing one design under different
  /// engine knobs should pass per-tenant options to ScanSession instead.
  /// Thread-safe; misses build under the pool lock.
  std::shared_ptr<const DesignContext> acquire(const Netlist& nl,
                                               const FlowOptions& opts = {});

  /// Contexts currently resident (not counting evicted-but-referenced).
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Drops every resident context (in-flight references stay valid).
  void clear();

 private:
  struct Entry {
    std::shared_ptr<const DesignContext> ctx;
    std::uint64_t last_use = 0;
  };

  void evict_to_capacity_locked();

  const std::size_t capacity_;
  Telemetry* telemetry_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, Entry> entries_;  ///< design hash -> context
  std::uint64_t tick_ = 0;                  ///< logical LRU clock
};

}  // namespace scanpower
