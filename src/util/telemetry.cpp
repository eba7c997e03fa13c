#include "util/telemetry.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"
#include "util/json.hpp"

namespace scanpower {

namespace {

constexpr const char* kCounterNames[kNumCounters] = {
    "sweep.calls",
    "sweep.unexcited",
    "sweep.cone_gates",
    "sweep.active_gates",
    "sweep.aborts",
    "fault_sim.runs",
    "fault_sim.blocks",
    "fault_sim.detected",
    "atpg.podem_calls",
    "atpg.podem_decisions",
    "atpg.podem_backtracks",
    "atpg.podem_untestable",
    "atpg.podem_aborted",
    "atpg.podem_implied_gates",
    "backend.blocks_scalar",
    "backend.blocks_avx2",
    "backend.blocks_avx512",
    "diag.queries",
    "diag.candidates",
    "diag.dropped",
    "diag.union_fallbacks",
    "diag.multiplets",
    "compact_diag.queries",
    "compact_diag.candidates",
    "cone_cache.hits",
    "cone_cache.misses",
    "good_cache.binds",
    "good_cache.built_blocks",
    "good_cache.cached_reads",
    "good_cache.streamed_reads",
    "xmask.builds",
    "session.diagnose_full",
    "session.diagnose_compacted",
    "session.batches",
    "session.pattern_binds",
    "session.pattern_bind_hits",
    "session.compact_state_hits",
    "session.compact_state_misses",
    "session.flow_runs",
    "sessions.ctx_builds",
    "sessions.pool_hits",
    "sessions.pool_misses",
    "sessions.pool_evictions",
    "queue.submitted",
    "queue.batches",
    "queue.coalesced",
    "queue.rejected",
    "queue.poisoned",
    "net.accepted",
    "net.conn_rejected",
    "net.requests",
    "net.bytes_in",
    "net.bytes_out",
    "net.framing_errors",
    "pool.runs",
    "pool.jobs",
    "diag.prune_us",
    "diag.score_us",
    "diag.cover_us",
    "good_cache.build_us",
    "xmask.build_us",
    "sessions.ctx_build_us",
    "queue.wait_us",
    "pool.busy_us",
};

constexpr const char* kGaugeNames[kNumGauges] = {
    "good_cache.blocks_cached",
    "pool.workers",
    "sim.backend",
    "sessions.pool_size",
    "queue.depth",
    "net.active_connections",
};

constexpr const char* kHistNames[kNumHists] = {
    "diag.latency_us",
    "compact_diag.latency_us",
    "net.request_us",
};

}  // namespace

const char* counter_name(CounterId id) {
  const auto i = static_cast<std::size_t>(id);
  SP_CHECK(i < kNumCounters, "bad CounterId");
  return kCounterNames[i];
}

const char* gauge_name(GaugeId id) {
  const auto i = static_cast<std::size_t>(id);
  SP_CHECK(i < kNumGauges, "bad GaugeId");
  return kGaugeNames[i];
}

const char* hist_name(HistId id) {
  const auto i = static_cast<std::size_t>(id);
  SP_CHECK(i < kNumHists, "bad HistId");
  return kHistNames[i];
}

// ---------- MetricsSnapshot --------------------------------------------------

std::uint64_t MetricsSnapshot::hist_count(HistId id) const {
  const auto& h = hists[static_cast<std::size_t>(id)];
  std::uint64_t n = 0;
  for (std::uint64_t b : h) n += b;
  return n;
}

void MetricsSnapshot::write_text(std::ostream& os) const {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (counters[i] != 0) os << kCounterNames[i] << ' ' << counters[i] << '\n';
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (gauges[i] != 0) os << kGaugeNames[i] << ' ' << gauges[i] << '\n';
  }
  for (std::size_t i = 0; i < kNumHists; ++i) {
    for (std::size_t b = 0; b < kNumHistBuckets; ++b) {
      if (hists[i][b] == 0) continue;
      os << kHistNames[i] << ".le_" << (b == 0 ? 0ull : (1ull << b)) << "us "
         << hists[i][b] << '\n';
    }
  }
}

void MetricsSnapshot::write_json(JsonWriter& w) const {
  w.begin_object("counters");
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (counters[i] != 0) w.field(kCounterNames[i], counters[i]);
  }
  w.end_object();
  w.begin_object("gauges");
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (gauges[i] != 0) w.field(kGaugeNames[i], gauges[i]);
  }
  w.end_object();
  w.begin_object("histograms");
  for (std::size_t i = 0; i < kNumHists; ++i) {
    std::uint64_t total = 0;
    for (std::uint64_t b : hists[i]) total += b;
    if (total == 0) continue;
    w.begin_object(kHistNames[i]);
    w.field("count", total);
    w.begin_array("buckets");
    for (std::size_t b = 0; b < kNumHistBuckets; ++b) w.value(hists[i][b]);
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

// ---------- MetricsRegistry --------------------------------------------------

std::size_t MetricsRegistry::hist_bucket(std::uint64_t us) {
  const std::size_t b = static_cast<std::size_t>(std::bit_width(us));
  return b < kNumHistBuckets ? b : kNumHistBuckets - 1;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  // Ascending shard order: irrelevant for a sum, but keeps the merge
  // discipline uniform with every other deterministic reduction in the repo.
  for (int shard = 0; shard < kMaxShards; ++shard) {
    const CounterShard& cs = shards_[static_cast<std::size_t>(shard)];
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      s.counters[i] += cs.counters[i].load(std::memory_order_relaxed);
    }
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    s.gauges[i] = gauges_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kNumHists; ++i) {
    for (std::size_t b = 0; b < kNumHistBuckets; ++b) {
      s.hists[i][b] = hists_[i][b].load(std::memory_order_relaxed);
    }
  }
  return s;
}

void MetricsRegistry::reset() {
  for (auto& shard : shards_) {
    for (auto& c : shard.counters) c.store(0, std::memory_order_relaxed);
  }
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  for (auto& h : hists_) {
    for (auto& b : h) b.store(0, std::memory_order_relaxed);
  }
}

// ---------- TraceRecorder ----------------------------------------------------

int TraceRecorder::open_span(int shard) {
  const int s = MetricsRegistry::clamp_shard(shard);
  std::lock_guard<std::mutex> lock(mu_);
  return depth_[static_cast<std::size_t>(s)]++;
}

void TraceRecorder::close_span(const char* name, int shard, int depth,
                               std::uint64_t start_us, std::uint64_t end_us) {
  const int s = MetricsRegistry::clamp_shard(shard);
  std::lock_guard<std::mutex> lock(mu_);
  depth_[static_cast<std::size_t>(s)]--;
  events_.push_back(TraceEvent{name, s, depth, start_us,
                               end_us >= start_us ? end_us - start_us : 0});
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = events_;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.shard != b.shard) return a.shard < b.shard;
                     if (a.start_us != b.start_us) return a.start_us < b.start_us;
                     return a.depth < b.depth;
                   });
  return out;
}

void TraceRecorder::write_chrome_trace(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_object();
  w.begin_array("traceEvents");
  for (const TraceEvent& e : events()) {
    w.begin_object();
    w.field("name", e.name);
    w.field("ph", "X");
    w.field("ts", e.start_us);
    w.field("dur", e.dur_us);
    w.field("pid", 1);
    w.field("tid", e.shard);
    w.begin_object("args");
    w.field("depth", e.depth);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  depth_.fill(0);
}

// ---------- global scope -----------------------------------------------------

Telemetry& global_telemetry() {
  static Telemetry t;
  return t;
}

}  // namespace scanpower
