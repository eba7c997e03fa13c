#include "core/session_pool.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace scanpower {

SessionPool::SessionPool(std::size_t capacity, Telemetry* telemetry)
    : capacity_(capacity), telemetry_(telemetry) {
  SP_CHECK(capacity_ >= 1,
           strprintf("SessionPool: capacity must be >= 1 (got %zu)",
                     capacity));
}

std::shared_ptr<const DesignContext> SessionPool::acquire(
    const Netlist& nl, const FlowOptions& opts) {
  const std::uint64_t key = DesignContext::hash_design(nl);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.last_use = ++tick_;
    SP_TELEM_ADD(telemetry_, 0, CounterId::kCtxPoolHits, 1);
    return it->second.ctx;
  }
  SP_TELEM_ADD(telemetry_, 0, CounterId::kCtxPoolMisses, 1);
  std::shared_ptr<const DesignContext> ctx;
  {
    // The span covers the whole build (member-init list included); the
    // kCtxBuilds counter itself is bumped inside the constructor.
    TraceSpan span(telemetry_, "sessions.ctx_build", 0,
                   CounterId::kCtxBuildUs);
    ctx = std::make_shared<const DesignContext>(nl, opts, telemetry_);
  }
  entries_.emplace(key, Entry{ctx, ++tick_});
  evict_to_capacity_locked();
  if (telemetry_) {
    telemetry_->metrics.set_gauge(GaugeId::kCtxPoolSize,
                                  static_cast<std::int64_t>(entries_.size()));
  }
  return ctx;
}

void SessionPool::evict_to_capacity_locked() {
  while (entries_.size() > capacity_) {
    auto victim = std::min_element(
        entries_.begin(), entries_.end(), [](const auto& a, const auto& b) {
          return a.second.last_use < b.second.last_use;
        });
    // Only the pool's reference is dropped: sessions holding the context
    // keep it alive, so eviction never invalidates in-flight work.
    entries_.erase(victim);
    SP_TELEM_ADD(telemetry_, 0, CounterId::kCtxPoolEvictions, 1);
  }
}

std::size_t SessionPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void SessionPool::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  if (telemetry_) telemetry_->metrics.set_gauge(GaugeId::kCtxPoolSize, 0);
}

}  // namespace scanpower
