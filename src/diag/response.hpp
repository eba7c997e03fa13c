#pragma once
// Observable-point responses and failing-pattern logs for simulation-based
// stuck-at diagnosis.
//
// The full-scan response of one pattern is the vector of values at the
// observation points: every primary output plus every scan-cell capture
// (the DFF D pin). ObservationPoints fixes an index space over those
// points; ResponseMatrix stores per-point responses packed one bit lane
// per pattern (the same 64-lane layout the simulation engine uses), so a
// signature comparison is a word-wise XOR/popcount.
//
// A tester only reports *failing* (pattern, observation point) pairs --
// the failure log. ResponseCapture produces such logs synthetically by
// injecting a stuck-at fault into the packed faulty machine, which is how
// the diagnosis tests and the CLI's --inject mode model a defective chip.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/packed_sim.hpp"
#include "atpg/pattern.hpp"
#include "netlist/netlist.hpp"
#include "util/telemetry.hpp"

namespace scanpower {

/// Index space over the observable points of the full-scan response: one
/// point per primary output (in Netlist::outputs() order) followed by one
/// per scan-cell capture (in Netlist::dffs() order).
class ObservationPoints {
 public:
  explicit ObservationPoints(const Netlist& nl);

  std::size_t size() const { return source_.size(); }
  std::size_t num_pos() const { return num_pos_; }
  bool is_dff_capture(std::size_t op) const { return op >= num_pos_; }

  /// The gate whose simulated value is observed at `op` (the PO gate
  /// itself, or the D-pin driver of the DFF).
  GateId observed_gate(std::size_t op) const { return source_[op]; }

  /// The scan cell of a capture point (asserts is_dff_capture).
  GateId dff_gate(std::size_t op) const;

  /// "po:<net>" or "dff:<cell>.D" -- stable across runs, used in logs.
  std::string name(const Netlist& nl, std::size_t op) const;

  /// Name-based record token: "po:<net>" for a primary-output point,
  /// "ff:<cell>" for a scan-cell capture point. Unlike raw indices these
  /// survive netlist re-finalization and gate-id renumbering.
  std::string record_name(const Netlist& nl, std::size_t op) const;

  /// Resolves a record token ("po:<net>", "ff:<cell>"; "dff:<cell>" and
  /// "dff:<cell>.D" accepted as aliases) to its point index. Throws Error
  /// for unknown nets or tokens that name no observation point.
  std::size_t resolve_record_name(const Netlist& nl,
                                  const std::string& token) const;

  /// Observation points reading gate `g`'s net: its PO point (if marked
  /// an output) plus one capture point per DFF D pin it drives.
  std::span<const std::uint32_t> points_of_gate(GateId g) const;

  /// Capture point of DFF gate `d`; kNone if `d` is not a DFF.
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t point_of_dff(GateId d) const;

  /// True for a fault on a scan cell's D pin: the capture branch, which
  /// corrupts that cell's capture point alone, never the cell's Q net.
  bool is_d_branch(const Fault& f) const {
    return f.pin >= 0 && dff_op_[f.gate] != kNoPoint;
  }

  /// Observation points that a fault effect of `f` reaching gate `g` (a
  /// FaultConeEvaluator::propagate sink event) is seen at. A D-branch
  /// fault sinks its DFF gate id as the capture branch, so that event is
  /// the cell's capture point; every other event, including a Q-stem
  /// fault on the same id, is on g's net and reaches points_of_gate(g).
  std::span<const std::uint32_t> sink_points(const Fault& f, GateId g) const {
    if (g == f.gate && is_d_branch(f)) return {&dff_op_[g], 1};
    return points_of_gate(g);
  }

  /// Byte mask over gates: 1 iff some observation point reads the gate's
  /// net (identical to observable_net_mask()).
  std::span<const std::uint8_t> observable() const { return observable_; }

 private:
  std::size_t num_pos_ = 0;
  std::vector<GateId> source_;             ///< per op: observed gate
  std::vector<GateId> cells_;              ///< capture points' DFFs, op order
  std::vector<std::uint32_t> op_offsets_;  ///< CSR: gate -> op list
  std::vector<std::uint32_t> op_data_;
  static constexpr std::uint32_t kNoPoint = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> dff_op_;      ///< gate -> capture op or kNoPoint
  std::vector<std::uint8_t> observable_;
};

/// Lazily built fanin cones of observation points: the gates a fault
/// effect can pass through on the way to point `op` -- the transitive
/// fanin of the observed gate (sources included, cut at the scan
/// boundary: logic behind a DFF's D pin belongs to the previous capture
/// cycle) plus, for capture points, the scan cell itself (D-branch fault
/// sites live there). Shared by full-response and compacted-signature
/// diagnosis, so the two engines cannot disagree about reachability.
class ObservationConeCache {
 public:
  ObservationConeCache(const Netlist& nl, const ObservationPoints& points);

  const std::vector<GateId>& cone(std::size_t op);

  /// Pre-builds every cone without tallying (hits and misses count cone()
  /// lookups only). Lazy misses share the DFS scratch and flip the
  /// non-atomic cached_ bytes, so they are serial-only; after build_all()
  /// returns no miss can ever happen again and cone() is safe from any
  /// number of threads at once (reads plus relaxed hit tallies).
  /// DesignContext builds its cache through this under std::call_once,
  /// extending the determinism contract to concurrent tenants.
  void build_all();

  /// Lifetime cone() hit/miss tallies. Relaxed atomics: the batch fan-out
  /// reads already-cached cones from several workers at once (misses only
  /// ever happen on the serial path).
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  /// DFS of one cone into cache_[op]; the caller has checked cached_[op].
  void build(std::size_t op);

  const Netlist* nl_;
  const ObservationPoints* points_;
  std::vector<std::vector<GateId>> cache_;
  std::vector<std::uint8_t> cached_;
  std::vector<std::uint8_t> mark_;  ///< DFS scratch, all-zero between calls
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// Simulated good-machine pattern blocks, shared across diagnose() calls.
/// Binding simulates every 64*block_words-pattern block of the bound set
/// and keeps the results while the block count stays under the cache cap
/// (one BlockSimulator per block: num_gates * W * 8 bytes of values);
/// past the cap only the geometry is kept and block() replays each read
/// into the caller's scratch simulator. Both diagnosers score candidates
/// out of this cache, and a ScanSession keeps one instance bound across
/// calls so repeated diagnoses of one (netlist, pattern set) pair never
/// re-simulate the good machine.
class GoodBlockCache {
 public:
  static constexpr std::size_t kDefaultMaxCachedBlocks = 256;

  GoodBlockCache() = default;

  /// (Re)binds to (nl, patterns, block_words). `patterns` must be fully
  /// specified and must outlive the binding (the owner keeps the storage
  /// alive; bound_to() identifies a binding by that storage). `backend`
  /// selects the kernel backend for the good machines (cached blocks and
  /// streaming scratch); the values are bit-identical across backends, so
  /// it is not part of the binding identity.
  void bind(const Netlist& nl, std::span<const TestPattern> patterns,
            int block_words,
            std::size_t max_cached_blocks = kDefaultMaxCachedBlocks,
            SimBackend backend = SimBackend::Auto);
  void reset();

  bool bound() const { return nl_ != nullptr; }
  /// True iff bound to exactly this pattern storage and width.
  bool bound_to(std::span<const TestPattern> patterns, int block_words) const {
    return bound() && patterns_.data() == patterns.data() &&
           patterns_.size() == patterns.size() && words_ == block_words;
  }
  /// Throws unless bound_to(patterns, block_words): an engine that
  /// borrows the cache must never score against another pattern set.
  void require_bound_to(std::span<const TestPattern> patterns,
                        int block_words) const;

  int block_words() const { return words_; }
  std::size_t lanes() const { return static_cast<std::size_t>(words_) * 64; }
  std::size_t num_blocks() const { return nblocks_; }
  std::span<const TestPattern> patterns() const { return patterns_; }

  /// True when every block is materialized (block count under the cap).
  bool cached() const { return cached_; }
  /// Good machine of block `b`: the cached block, or past the cap block
  /// `b` replayed (load + eval) into `scratch`, which is built on first
  /// use. The values are equal either way, so cached and streamed scoring
  /// are bit-identical. Each call counts one cached or streamed read.
  const BlockSimulator& block(std::size_t b,
                              std::unique_ptr<BlockSimulator>& scratch) const;

  /// Lifetime telemetry tallies (relaxed atomics where batch workers read
  /// concurrently).
  std::uint64_t binds() const { return binds_; }
  std::uint64_t built_blocks() const { return built_blocks_; }
  std::uint64_t build_us() const { return build_us_; }
  std::uint64_t cached_reads() const {
    return cached_reads_.load(std::memory_order_relaxed);
  }
  std::uint64_t streamed_reads() const {
    return streamed_reads_.load(std::memory_order_relaxed);
  }
  std::size_t blocks_cached() const { return blocks_.size(); }

 private:
  const Netlist* nl_ = nullptr;
  std::span<const TestPattern> patterns_;
  int words_ = 0;
  SimBackend backend_ = SimBackend::Auto;
  std::size_t nblocks_ = 0;
  bool cached_ = false;
  std::vector<BlockSimulator> blocks_;
  std::uint64_t binds_ = 0;         ///< serial (bind callers)
  std::uint64_t built_blocks_ = 0;  ///< serial (bind callers)
  std::uint64_t build_us_ = 0;      ///< serial (bind callers)
  mutable std::atomic<std::uint64_t> cached_reads_{0};
  mutable std::atomic<std::uint64_t> streamed_reads_{0};
};

/// Per-worker state of a candidate sweep, shared by both diagnosers: the
/// fault-cone evaluator and the scratch good machine GoodBlockCache::block
/// streams into past the cache cap.
struct SweepWorker {
  FaultConeEvaluator eval;
  std::unique_ptr<BlockSimulator> scratch;
};

/// Packed per-point response signatures: row `op` holds one bit per
/// pattern (bit lane i of word w = pattern 64*w + i).
struct ResponseMatrix {
  std::size_t num_points = 0;
  std::size_t num_patterns = 0;
  std::vector<PatternWord> words;  ///< num_points * words_per_point

  std::size_t words_per_point() const { return (num_patterns + 63) / 64; }
  PatternWord* row(std::size_t op) { return words.data() + op * words_per_point(); }
  const PatternWord* row(std::size_t op) const {
    return words.data() + op * words_per_point();
  }
  bool bit(std::size_t op, std::size_t pattern) const {
    return (row(op)[pattern / 64] >> (pattern % 64)) & 1;
  }
  void set_bit(std::size_t op, std::size_t pattern) {
    row(op)[pattern / 64] |= PatternWord{1} << (pattern % 64);
  }
  /// Total set bits (e.g. number of failures in an observed-failure mask).
  std::size_t popcount() const;
};

/// One tester-reported failure: pattern index x observation point index.
struct Failure {
  std::uint32_t pattern = 0;
  std::uint32_t op = 0;

  friend auto operator<=>(const Failure&, const Failure&) = default;
};

/// A failing-pattern log, as a tester (or synthetic injection) reports it.
struct FailureLog {
  std::string circuit;
  std::size_t num_patterns = 0;  ///< patterns applied (context for passes)
  std::vector<Failure> failures; ///< sorted by (pattern, op), duplicate-free

  void normalize();  ///< sort + dedupe
  /// Failure bits as a packed mask over `num_points` observation points.
  ResponseMatrix to_matrix(std::size_t num_points) const;
};

/// Plain-text failure-log format:
///   # comments
///   circuit <name>
///   patterns <n>
///   fail <pattern> <op_index> [op_name]     (index-based record)
///   fail <pattern> po:<net>                 (name-based record)
///   fail <pattern> ff:<cell>                (name-based record)
///   end <record_count>
/// Index records carry an informational op name that load ignores.
/// Name-based records survive netlist re-finalization; loading them
/// requires the netlist/observation-point context (records are resolved
/// through ObservationPoints::resolve_record_name). Loading a log that
/// contains name-based records without that context throws Error.
///
/// load validates strictly and throws with the offending line number:
/// duplicate or missing headers, fail records before the patterns header,
/// out-of-range pattern indices, out-of-range point indices (when the
/// observation-point context is given), duplicate failure records,
/// non-numeric or trailing garbage tokens, records after the end marker,
/// an end-marker count that disagrees with the records seen, and a
/// missing end marker (a truncated file).
void save_failure_log(std::ostream& out, const FailureLog& log,
                      const Netlist* nl = nullptr,
                      const ObservationPoints* ops = nullptr,
                      bool named_records = false);
FailureLog load_failure_log(std::istream& in, const Netlist* nl = nullptr,
                            const ObservationPoints* ops = nullptr);
void save_failure_log_file(const std::string& path, const FailureLog& log,
                           const Netlist* nl = nullptr,
                           const ObservationPoints* ops = nullptr,
                           bool named_records = false);
FailureLog load_failure_log_file(const std::string& path,
                                 const Netlist* nl = nullptr,
                                 const ObservationPoints* ops = nullptr);

/// Captures packed observable-point responses from the block simulator.
class ResponseCapture {
 public:
  explicit ResponseCapture(const Netlist& nl, int block_words = 4,
                           SimBackend backend = SimBackend::Auto);

  const ObservationPoints& points() const { return points_; }
  int block_words() const { return words_; }

  /// Good-machine signatures of `patterns` (must be fully specified).
  ResponseMatrix capture_good(std::span<const TestPattern> patterns);

  /// Synthetic device-under-diagnosis: the failure log a tester would
  /// record for a chip carrying exactly fault `f` under `patterns`.
  FailureLog inject(std::span<const TestPattern> patterns, const Fault& f);

  /// Multi-fault device-under-diagnosis: the failure log of a chip
  /// carrying every fault in `faults` simultaneously. This is an exact
  /// k-fault simulation over the merged fanout cones -- one fault masking
  /// or reinforcing another is modelled, unlike a superposition of
  /// single-fault logs. Duplicate faults are ignored; two distinct
  /// forcings of one site (or one capture branch) throw, since the
  /// defective machine they describe is contradictory.
  FailureLog inject(std::span<const TestPattern> patterns,
                    std::span<const Fault> faults);

 private:
  template <int W>
  void capture_good_impl(std::span<const TestPattern> patterns,
                         ResponseMatrix& out);
  template <int W>
  void inject_impl(std::span<const TestPattern> patterns, const Fault& f,
                   FailureLog& log);
  template <int W>
  void inject_multi_impl(std::span<const TestPattern> patterns,
                         std::span<const Fault> faults, FailureLog& log);

  const Netlist* nl_;
  int words_;
  SimBackend backend_ = SimBackend::Auto;
  ObservationPoints points_;
  FaultConeEvaluator eval_;
};

}  // namespace scanpower
