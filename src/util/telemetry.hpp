#pragma once
// Telemetry: a process-wide but session-scopable metrics registry plus a
// phase-trace recorder with Chrome trace_event JSON export.
//
// The registry keeps monotonic counters, gauges and fixed-bucket latency
// histograms in per-shard slots (shard = thread-pool worker index, clamped
// to kMaxShards). Slots are relaxed atomics, so concurrent writers from
// shared caches are race-free, and snapshots merge shards in ascending
// shard order -- enabling telemetry never perturbs engine results or their
// bit-identical-across-num_threads guarantee, because the engines never
// read the registry back.
//
// Counter determinism contract (guarded by tests/test_telemetry.cpp):
//   - semantic counters (queries, candidates, dropped, fallbacks, ...) and
//     work counters (sweeps, cone gates, blocks) are invariant across
//     thread counts;
//   - counters whose name ends in "_us" are wall-clock time and carry no
//     determinism guarantee.
//
// A null `Telemetry*` is the off switch: every instrumented engine takes a
// maybe-null scope, and with none attached a counter add or a span is one
// null check (a span that also feeds a result's stats still reads the
// clock).

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <vector>

namespace scanpower {

class JsonWriter;

// ---------- metric identifiers ----------------------------------------------

enum class CounterId : int {
  // fault-cone sweeps (work counters)
  kSweepCalls = 0,     ///< propagate() calls that walked a cone (excited)
  kSweepUnexcited,     ///< propagate() calls that died before the sweep
  kSweepConeGates,     ///< total cone sizes of the swept cones
  kSweepActiveGates,   ///< gates actually re-evaluated (sparse-skip survivors)
  kSweepAborts,        ///< sweeps cut short by a bool sink (early-exit)
  // fault simulation
  kFaultSimRuns,
  kFaultSimBlocks,
  kFaultSimDetected,   ///< faults detected and dropped (semantic)
  // PODEM top-off of generate_tests. Untestable/aborted are semantic; the
  // others are work counters. All are invariant across thread counts.
  kPodemCalls,         ///< Podem::generate() calls
  kPodemDecisions,     ///< source assignments made by backtrace
  kPodemBacktracks,    ///< decision flips
  kPodemUntestable,    ///< faults proven untestable
  kPodemAborted,       ///< faults that hit the backtrack limit
  kPodemImpliedGates,  ///< gate evaluations by event-driven implication
  kPodemXpathPrunes,   ///< dead ends found by the X-path check alone
  // kernel-backend attribution: fault-sim blocks swept per backend (work
  // counters; which one advances depends on the resolved backend)
  kBackendBlocksScalar,
  kBackendBlocksAvx2,
  kBackendBlocksAvx512,
  // full-response diagnosis (semantic)
  kDiagQueries,
  kDiagCandidates,     ///< prune survivors scored
  kDiagDropped,        ///< candidates dropped by the scoring early-exit
  kDiagUnionFallbacks, ///< noise-recovery union re-prunes taken
  kDiagMultiplets,     ///< suspect sets emitted
  // compacted diagnosis (semantic)
  kCompactQueries,
  kCompactCandidates,
  // shared caches
  kConeCacheHits,
  kConeCacheMisses,
  kGoodCacheBinds,       ///< pattern (re)binds of the good-block cache
  kGoodCacheBuiltBlocks, ///< good-machine blocks simulated
  kGoodCacheCachedReads, ///< block requests served from cache
  kGoodCacheStreamedReads, ///< block requests re-simulated past the cap
  kXMaskBuilds,
  // session
  kSessionDiagnoseFull,
  kSessionDiagnoseCompact,
  kSessionBatches,
  kSessionPatternBinds,
  kSessionPatternBindHits, ///< rebinds of identical content (no-op)
  kSessionCompactStateHits,
  kSessionCompactStateMisses,
  kSessionFlowRuns,
  // design-context pool (semantic: one shared DesignContext per design)
  kCtxBuilds,          ///< DesignContext constructions (pool misses build)
  kCtxPoolHits,        ///< acquire() served an already-published context
  kCtxPoolMisses,
  kCtxPoolEvictions,   ///< LRU entries dropped past the capacity knob
  // async diagnosis queue (semantic)
  kQueueSubmitted,     ///< submit() calls
  kQueueBatches,       ///< diagnose_batch dispatches by the queue worker
  kQueueCoalesced,     ///< logs that rode along in a multi-log batch
  kQueueRejected,      ///< submits refused by the Reject overload policy
  kQueuePoisoned,      ///< pending futures failed by queue shutdown
  // network transport (traffic-dependent: no determinism guarantee)
  kNetAccepted,        ///< connections accepted by the listener
  kNetConnRejected,    ///< connections refused at the connection cap
  kNetRequests,        ///< command lines handled across connections
  kNetBytesIn,         ///< payload bytes read off accepted sockets
  kNetBytesOut,        ///< response bytes written to accepted sockets
  kNetFramingErrors,   ///< oversized / malformed lines answered with errors
  // thread pool (configuration-dependent: varies with num_threads)
  kPoolRuns,
  kPoolJobs,
  // wall-clock time, microseconds (no determinism guarantee)
  kDiagPruneUs,
  kDiagScoreUs,
  kDiagCoverUs,        ///< noise recovery + multiplet cover
  kGoodCacheBuildUs,
  kXMaskBuildUs,
  kCtxBuildUs,         ///< DesignContext build wall time
  kQueueWaitUs,        ///< summed submit -> dispatch wait of queued logs
  kPoolBusyUs,
  kCount
};

enum class GaugeId : int {
  kGoodBlocksCached = 0, ///< blocks currently held by the good-block cache
  kPoolWorkers,
  kSimBackend,           ///< last resolved SimBackend (numeric enum value)
  kCtxPoolSize,          ///< design contexts currently resident in the pool
  kQueueDepth,           ///< evidence waiting in the diagnosis queue
  kNetActiveConns,       ///< currently open server connections
  kCount
};

enum class HistId : int {
  kDiagnoseUs = 0,     ///< full-response diagnose() latency
  kCompactDiagnoseUs,  ///< compacted diagnose() latency
  kNetRequestUs,       ///< per-command handling latency at the server
  // Podem::generate() latency in generate_tests, one histogram per verdict
  kPodemDetectedUs,
  kPodemUntestableUs,
  kPodemAbortedUs,
  kCount
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(CounterId::kCount);
inline constexpr std::size_t kNumGauges =
    static_cast<std::size_t>(GaugeId::kCount);
inline constexpr std::size_t kNumHists =
    static_cast<std::size_t>(HistId::kCount);
/// Histogram buckets are powers of two of microseconds: bucket i counts
/// values v with bit_width(v) == i, i.e. v in [2^(i-1), 2^i); bucket 0 is
/// v == 0 and the last bucket absorbs everything >= 2^30 us (~18 min).
inline constexpr std::size_t kNumHistBuckets = 32;

const char* counter_name(CounterId id);
const char* gauge_name(GaugeId id);
const char* hist_name(HistId id);

// ---------- snapshot ---------------------------------------------------------

/// A merged, point-in-time view of a MetricsRegistry. Plain data; safe to
/// copy, compare and serialize after the fact.
struct MetricsSnapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::int64_t, kNumGauges> gauges{};
  std::array<std::array<std::uint64_t, kNumHistBuckets>, kNumHists> hists{};

  std::uint64_t counter(CounterId id) const {
    return counters[static_cast<std::size_t>(id)];
  }
  std::int64_t gauge(GaugeId id) const {
    return gauges[static_cast<std::size_t>(id)];
  }
  std::uint64_t hist_count(HistId id) const;

  /// One `name value` line per non-zero counter/gauge, histograms as
  /// `name.le_<2^i>us count` bucket lines.
  void write_text(std::ostream& os) const;
  /// Fields of an already-open JSON object: "counters"/"gauges"/"histograms"
  /// sub-objects (non-zero entries only).
  void write_json(JsonWriter& w) const;
};

// ---------- registry ---------------------------------------------------------

class MetricsRegistry {
 public:
  static constexpr int kMaxShards = 64;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Add to a counter. `shard` is the writer's thread-pool worker index
  /// (0 for caller-thread code); shards only spread contention -- any shard
  /// is correct, and a snapshot sums them in ascending order.
  void add(int shard, CounterId id, std::uint64_t n = 1) {
    shard_(shard).counters[static_cast<std::size_t>(id)].fetch_add(
        n, std::memory_order_relaxed);
  }

  void set_gauge(GaugeId id, std::int64_t v) {
    gauges_[static_cast<std::size_t>(id)].store(v, std::memory_order_relaxed);
  }

  void record_hist(HistId id, std::uint64_t us) {
    hists_[static_cast<std::size_t>(id)][hist_bucket(us)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Merge every shard (ascending order) into a plain snapshot.
  MetricsSnapshot snapshot() const;

  /// Zero every counter, gauge and histogram bucket.
  void reset();

  static std::size_t hist_bucket(std::uint64_t us);
  /// A writer's shard index clamped into [0, kMaxShards).
  static int clamp_shard(int shard) {
    return shard < 0 ? 0 : (shard >= kMaxShards ? kMaxShards - 1 : shard);
  }

 private:
  struct alignas(64) CounterShard {
    std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  };

  CounterShard& shard_(int shard) {
    return shards_[static_cast<std::size_t>(clamp_shard(shard))];
  }

  std::array<CounterShard, kMaxShards> shards_{};
  std::array<std::atomic<std::int64_t>, kNumGauges> gauges_{};
  std::array<std::array<std::atomic<std::uint64_t>, kNumHistBuckets>, kNumHists>
      hists_{};
};

// ---------- phase tracing ----------------------------------------------------

struct TraceEvent {
  const char* name;       ///< static string (phase name)
  int shard;              ///< worker index; Chrome `tid` row
  int depth;              ///< nesting depth within the shard at open time
  std::uint64_t start_us; ///< microseconds since the recorder's epoch
  std::uint64_t dur_us;
};

/// Records completed nested phase spans. Disabled by default (recording a
/// span with the recorder disabled is a branch and nothing else); spans are
/// coarse (per query / per phase), so a single mutex guards the buffer.
class TraceRecorder {
 public:
  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Open a span on `shard`; returns the nesting depth to pass to close().
  int open_span(int shard);
  void close_span(const char* name, int shard, int depth,
                  std::uint64_t start_us, std::uint64_t end_us);

  /// Completed events sorted by (shard, start, depth) -- deterministic for
  /// a deterministic span structure.
  std::vector<TraceEvent> events() const;

  /// Chrome trace_event JSON ("ph":"X" complete events; load via
  /// chrome://tracing or https://ui.perfetto.dev).
  void write_chrome_trace(std::ostream& os) const;

  void clear();

 private:
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::array<int, MetricsRegistry::kMaxShards> depth_{};
};

// ---------- aggregate --------------------------------------------------------

/// One telemetry scope: a registry plus a trace recorder. `ScanSession` owns
/// one; standalone engines accept a `Telemetry*` option (nullptr = off).
struct Telemetry {
  MetricsRegistry metrics;
  TraceRecorder trace;
};

/// Process-wide scope for code that has no session (benchmarks, one-shot
/// tools).
Telemetry& global_telemetry();

/// Steady-clock microseconds (arbitrary epoch; deltas only).
inline std::uint64_t telemetry_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII nested phase span. One measurement feeds up to three sinks on
/// destruction: a TraceEvent (when the recorder is enabled), a `_us`
/// counter (when dur_counter is given), and `*elapsed_out += elapsed`
/// (when given -- works even with a nullptr telemetry scope, which is how
/// DiagnosisResult::stats stays populated without a registry attached).
class TraceSpan {
 public:
  explicit TraceSpan(Telemetry* t, const char* name, int shard = 0,
                     CounterId dur_counter = CounterId::kCount,
                     std::uint64_t* elapsed_out = nullptr)
      : t_(t), name_(name), shard_(shard), dur_counter_(dur_counter),
        elapsed_out_(elapsed_out) {
    const bool tracing = t_ != nullptr && t_->trace.enabled();
    const bool counting = t_ != nullptr && dur_counter_ != CounterId::kCount;
    if (tracing || counting || elapsed_out_ != nullptr) {
      start_us_ = t_ != nullptr ? t_->trace.now_us() : telemetry_now_us();
      armed_ = true;
      depth_ = tracing ? t_->trace.open_span(shard_) : -1;
    }
  }
  ~TraceSpan() {
    if (!armed_) return;
    const std::uint64_t end =
        t_ != nullptr ? t_->trace.now_us() : telemetry_now_us();
    const std::uint64_t el = end - start_us_;
    if (elapsed_out_ != nullptr) *elapsed_out_ += el;
    if (t_ != nullptr && dur_counter_ != CounterId::kCount)
      t_->metrics.add(shard_, dur_counter_, el);
    if (depth_ >= 0) t_->trace.close_span(name_, shard_, depth_, start_us_, end);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Telemetry* t_ = nullptr;
  const char* name_ = nullptr;
  int shard_ = 0;
  int depth_ = -1;
  CounterId dur_counter_ = CounterId::kCount;
  std::uint64_t* elapsed_out_ = nullptr;
  std::uint64_t start_us_ = 0;
  bool armed_ = false;
};

/// Counter add through a maybe-null Telemetry* (nullptr = off).
#define SP_TELEM_ADD(telem, shard, id, n)                               \
  do {                                                                  \
    if ((telem) != nullptr)                                             \
      (telem)->metrics.add((shard), (id),                               \
                           static_cast<std::uint64_t>(n));              \
  } while (0)

}  // namespace scanpower
