#pragma once
// Cause-effect stuck-at diagnosis: which fault explains a failure log?
//
// Two stages, both built on the packed simulation engine:
//
//  1. Candidate generation -- structural pruning. A single stuck-at fault
//     can only corrupt observation points whose fanin cone contains the
//     fault site, so for every failing pattern the candidate must lie in
//     the union of the failing points' fanin cones, and therefore in the
//     intersection of those unions across failing patterns. Distinct
//     failing-point sets are deduplicated before intersecting, so the
//     back-trace cost scales with response diversity, not pattern count.
//
//  2. Candidate ranking -- packed per-candidate simulation. Every
//     surviving candidate is injected into the faulty machine (reusing
//     FaultConeEvaluator's sparse cone sweep) and its predicted failures
//     are compared against the observed log with SLAT-style match
//     counters over (pattern, observation point) pairs:
//       TFSF  tester-fail, simulation-fail   (explained failures)
//       TFSP  tester-fail, simulation-pass   (unexplained failures)
//       TPSF  tester-pass, simulation-fail   (mispredicted failures)
//     Ranking: exact matches (TFSP = TPSF = 0) first, then ascending
//     Hamming distance (TFSP + TPSF), then descending TFSF, ties broken
//     by candidate index. Candidates are scored round-robin across the
//     worker pool; every counter is a popcount sum over disjoint words,
//     so results are bit-identical for every (block width, thread count)
//     configuration.
//
// When the best single candidate leaves failures unexplained (a noisy
// log, or more than one real defect), a noise-recovery stage runs after
// ranking:
//
//  3. Union-pruning fallback -- the intersection back-trace of stage 1 is
//     only sound for a single fault (with two defects, no single cone
//     union need contain either site for *every* failing pattern). When
//     the top-ranked candidate's TFSP exceeds noise_tolerance, pruning
//     falls back to the union of all failing points' cones and rescoring
//     runs over the enlarged candidate set -- the graceful, automatic
//     form of the manual all-or-nothing cone_pruning = false escape
//     hatch.
//
//  4. Multiplet cover -- SLAT-style per-pattern explanation. Each
//     shortlisted candidate's predicted response is replayed; a set of
//     candidates covers a failing pattern iff the union of the members'
//     predicted failures equals the observed failures on that pattern at
//     every observation point (so a pattern where two defects fail
//     together is covered by the pair even when neither alone reproduces
//     it). A greedy set cover over those patterns emits ranked suspect
//     *sets* (DiagnosisResult::multiplets) -- pairs (or small sets) of
//     candidates that jointly explain the log when no single candidate
//     does. Clean single-fault logs skip both stages (the top candidate
//     explains everything), so the single-fault path pays nothing.
//
// Construction: the engine owns only its per-worker scratch. The pool,
// observation points, cone cache and good-block cache are borrowed from
// the ScanSession that builds it (session.hpp), so their cost is paid
// once per design or pattern set, never per call. Code that needs the
// bare engine -- kernels, or tests that steer the cache cap or the
// telemetry scope -- borrows the same pieces from a DesignContext, a
// ThreadPool and a bound GoodBlockCache.

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/pattern.hpp"
#include "diag/response.hpp"
#include "netlist/netlist.hpp"
#include "util/thread_pool.hpp"

namespace scanpower {

struct DiagnosisOptions {
  /// Pattern words per simulation block; must be in kBlockWords
  /// (packed_sim.hpp).
  int block_words = 4;
  /// Kernel backend for the packed sweeps; Auto = best available.
  /// Results are bit-identical across backends.
  SimBackend backend = SimBackend::Auto;
  /// Worker count for candidate scoring. 1 = serial; 0 = hardware
  /// concurrency.
  int num_threads = 1;
  /// Fanin-cone back-trace pruning before scoring. Disable to score the
  /// entire fault list (diagnosing logs with suspected multiple faults).
  bool cone_pruning = true;
  /// Early-exit during scoring (mirrors fault dropping in the simulator):
  /// TPSF only grows as a candidate's cone sweep tallies observation
  /// points, so a candidate whose running TPSF already exceeds the best
  /// completed Hamming distance (TFSP + TPSF) cannot win -- its sweep is
  /// aborted and its remaining pattern blocks skipped. Candidates are
  /// scored in fixed-size rounds and the best Hamming bound advances only
  /// at round boundaries, so the dropped set -- and the final ranking --
  /// stays bit-identical across every (block width, thread count)
  /// configuration. Dropped candidates keep canonical zero counters and
  /// rank after all fully scored candidates.
  bool score_early_exit = true;
  /// Report size used by the CLI/JSON front ends; the ranked list itself
  /// always keeps every scored candidate.
  std::size_t max_report = 10;
  /// Tester-noise tolerance, in records: a candidate is not dropped by
  /// the scoring early-exit for mispredicting up to this many records
  /// beyond the best completed Hamming distance, and the noise-recovery
  /// stages only trigger when the top candidate leaves more than this
  /// many failures unexplained. 0 = trust the log exactly.
  std::uint64_t noise_tolerance = 0;
  /// Noise recovery (union-pruning fallback + multiplet cover) when no
  /// single candidate explains the log within noise_tolerance.
  bool multiplets = true;
  /// Maximum candidates per suspect set.
  std::size_t max_multiplet_size = 4;
  /// Maximum suspect sets reported (also the number of greedy seeds).
  std::size_t max_multiplets = 8;
  /// Optional metrics/trace scope (not owned; nullptr = no registry or
  /// trace output, but DiagnosisResult::stats is still populated).
  Telemetry* telemetry = nullptr;
};

/// Per-query telemetry carried on a DiagnosisResult, populated whether or
/// not a telemetry scope is attached. Wall-clock fields are
/// non-deterministic by nature; the count fields equal what the query
/// added to the corresponding registry counters. Cone-cache deltas are
/// only attributed on serial prepare paths (single-log diagnose, and the
/// serial prepare phase of a batch); concurrent cache hits from batch
/// noise recovery are counted globally but not per query.
struct DiagnosisStats {
  std::uint64_t prune_us = 0;         ///< validate + back-trace pruning
  std::uint64_t score_us = 0;         ///< candidate ranking (first pass)
  std::uint64_t cover_us = 0;         ///< noise recovery: union rescore + cover
  std::uint64_t sweep_calls = 0;      ///< cone sweeps run for this query
  std::uint64_t sweep_aborts = 0;     ///< sweeps cut short by early-exit
  std::uint64_t cone_cache_hits = 0;
  std::uint64_t cone_cache_misses = 0;

  /// Attributes one worker's drained sweep tallies to this query.
  void add_sweeps(const FaultConeEvaluator::SweepStats& s) {
    sweep_calls += s.calls;
    sweep_aborts += s.aborts;
  }
};

/// One scored candidate fault.
struct CandidateScore {
  Fault fault;
  std::uint32_t fault_index = 0;  ///< index into the diagnosed fault list
  std::uint64_t tfsf = 0;         ///< tester fail & simulation fail
  std::uint64_t tfsp = 0;         ///< tester fail & simulation pass
  std::uint64_t tpsf = 0;         ///< tester pass & simulation fail
  /// Scoring was cut short: the candidate provably cannot beat the best
  /// explanation (see DiagnosisOptions::score_early_exit). Counters are
  /// canonical (tfsf = tpsf = 0, tfsp = total failures).
  bool dropped = false;

  bool exact() const { return !dropped && tfsp == 0 && tpsf == 0; }
  std::uint64_t hamming() const { return tfsp + tpsf; }

  /// Strict-weak "explains the log better" order (see header comment);
  /// dropped candidates rank after every fully scored one.
  friend bool operator<(const CandidateScore& a, const CandidateScore& b) {
    if (a.dropped != b.dropped) return !a.dropped;
    if (a.dropped) return a.fault_index < b.fault_index;
    if (a.hamming() != b.hamming()) return a.hamming() < b.hamming();
    if (a.tfsf != b.tfsf) return a.tfsf > b.tfsf;
    return a.fault_index < b.fault_index;
  }
};

/// One multi-fault suspect set: candidates that jointly explain the log.
/// `covered` counts failing patterns the set explains (the union of the
/// members' predicted failures equals the observed failures on that
/// pattern at every observation point); `uncovered` counts the rest --
/// residual noise, or a defect outside the shortlist.
struct SuspectSet {
  std::vector<CandidateScore> members;  ///< greedy insertion order
  std::size_t covered = 0;
  std::size_t uncovered = 0;

  bool contains(const Fault& f) const;
};

struct DiagnosisResult {
  /// Every scored candidate, best explanation first.
  std::vector<CandidateScore> ranked;

  /// Ranked multi-fault suspect sets (best cover first). Empty when the
  /// top single candidate explains the log within noise_tolerance, when
  /// options disable multiplets, and for compacted diagnosis, which does
  /// not run the cover (diagnose_batch runs it like diagnose()).
  /// Bit-identical across every (block width, thread count)
  /// configuration, like `ranked`.
  std::vector<SuspectSet> multiplets;
  /// Cone pruning fell back from the per-pattern intersection to the
  /// union of all failing points' cones (multi-fault / noisy log).
  bool union_fallback = false;

  std::size_t num_faults = 0;            ///< fault universe diagnosed against
  std::size_t num_candidates = 0;        ///< survived cone pruning (= ranked.size())
  std::size_t num_dropped = 0;           ///< scoring cut short by early-exit
  std::size_t num_failures = 0;          ///< log entries (failing windows
                                         ///< for compacted diagnosis)
  std::size_t num_failing_patterns = 0;
  std::size_t num_failing_points = 0;    ///< distinct failing observation points

  // Compacted-signature diagnosis only (SignatureDiagnoser); zero when
  // diagnosing a full failure log.
  std::size_t num_windows = 0;
  std::size_t num_failing_windows = 0;
  std::size_t num_masked = 0;            ///< masked (point, window) pairs

  /// Per-query timing and work tallies (never part of ranking or of any
  /// determinism contract; see DiagnosisStats).
  DiagnosisStats stats;

  /// 1-based competition rank of fault `f` among the scored candidates:
  /// candidates with equal scores share a rank (they are indistinguishable
  /// under the applied patterns). Returns 0 if `f` was pruned away.
  std::size_t rank_of(const Fault& f) const;
};

/// Shared cone-union back-trace used by both diagnosers: a candidate
/// survives iff its site gate lies, for every op set, in the union of
/// that set's observation-point cones. Full-response diagnosis passes
/// one set per distinct failing-point pattern; compacted diagnosis one
/// set of unmasked points per distinct failing window; with cone pruning
/// off both pass no set, which keeps every fault. Callers deduplicate
/// `op_sets` (identical sets contribute identical unions). Returns one
/// zeroed score slot per survivor, in fault-index order.
std::vector<CandidateScore> prune_by_cone_unions(
    const Netlist& nl, ObservationConeCache& cones,
    std::span<const Fault> faults,
    const std::vector<std::vector<std::uint32_t>>& op_sets);

/// Per-query work attribution shared by both diagnosers. Construction
/// marks the cone cache's lookup tallies; finish() sets the lookups made
/// since as the query's cone-cache stats and drains `workers`' sweep
/// tallies onto it in ascending order (worker i's per-shard values go to
/// registry shard i). Every query drains every worker it used, so sweep
/// tallies always start at zero.
class QueryTally {
 public:
  explicit QueryTally(const ObservationConeCache& cones)
      : cones_(&cones), hits0_(cones.hits()), misses0_(cones.misses()) {}
  void finish(Telemetry* t, std::span<SweepWorker> workers,
              DiagnosisStats& st) const;

 private:
  const ObservationConeCache* cones_;
  std::uint64_t hits0_;
  std::uint64_t misses0_;
};

class Diagnoser {
 public:
  /// Borrows every shared piece (see "Construction" above). `goods` must
  /// already be bound to the pattern storage later passed to diagnose(),
  /// else diagnose() throws; opts.num_threads is superseded by the pool's
  /// size.
  Diagnoser(const Netlist& nl, DiagnosisOptions opts, ThreadPool& pool,
            const ObservationPoints& points, ObservationConeCache& cones,
            GoodBlockCache& goods);

  const DiagnosisOptions& options() const { return opts_; }
  const ObservationPoints& points() const { return *points_; }

  /// Scores `faults` (typically collapse_faults(nl)) against the observed
  /// failure log under `patterns` (fully specified; the log's pattern
  /// indices must refer to this set).
  DiagnosisResult diagnose(std::span<const TestPattern> patterns,
                           std::span<const Fault> faults,
                           const FailureLog& log);

  /// Batch entry point behind ScanSession::diagnose_batch: every log is
  /// validated and cone-pruned serially (sharing the lazily built cones),
  /// then the logs fan out round-robin across the worker pool -- each log
  /// is scored wholly within one worker, in the same fixed 64-candidate
  /// rounds and block order as diagnose(), so each result is bit-identical
  /// to a sequential diagnose() call on the same log.
  std::vector<DiagnosisResult> diagnose_batch(
      std::span<const TestPattern> patterns, std::span<const Fault> faults,
      std::span<const FailureLog* const> logs);

 private:
  /// Validated, pruned, ready-to-score state of one log.
  struct Prepared {
    const FailureLog* log = nullptr;
    ResponseMatrix observed;
    std::uint64_t total_fail = 0;
    std::vector<CandidateScore> scores;  ///< one slot per candidate
    DiagnosisResult res;  ///< stats prefilled; ranked filled by finalize()
  };

  /// Back-trace flavour: intersection of per-pattern cone unions (sound
  /// for one fault) or the single union over every failing point (sound
  /// for any fault multiplicity; the noise-recovery fallback).
  enum class PruneMode { kIntersect, kUnion };

  /// Worker argument of the scoring stages meaning "fan each round's
  /// candidates over the whole pool" (single-log diagnose). Good blocks
  /// are then fetched, and the recovery stages replayed, on the caller
  /// thread as worker 0, whose state is idle between pool runs.
  static constexpr int kPool = -1;

  Prepared prepare(std::span<const TestPattern> patterns,
                   std::span<const Fault> faults, const FailureLog& log,
                   PruneMode mode);
  void finalize(Prepared& p);

  /// The op sets prune_by_cone_unions intersects for `log`.
  std::vector<std::vector<std::uint32_t>> failing_op_sets(
      const FailureLog& log, PruneMode mode) const;

  /// Accumulates one candidate's counters over one good-machine block and
  /// applies the early-exit drop test at the block boundary.
  template <int W>
  void score_candidate_block(FaultConeEvaluator& ev, CandidateScore& sc,
                             const BlockSimulator& good, std::size_t block,
                             const ResponseMatrix& observed, bool early_exit,
                             std::uint64_t best);

  /// Scores p's candidates in fixed rounds, fanned over the pool (kPool)
  /// or wholly on one worker (the batch fan-out); both give the same
  /// counters and dropped set.
  template <int W>
  void score_candidates(int worker, Prepared& p);

  /// Post-ranking noise recovery: union-pruning fallback + multiplet
  /// cover (header stages 3/4), run by `worker` like score_candidates.
  template <int W>
  void recover_noise(int worker, std::span<const TestPattern> patterns,
                     std::span<const Fault> faults, Prepared& p);
  /// Replays the top shortlist candidates and greedily covers the failing
  /// patterns with sets whose union of predicted failures matches the
  /// observed ones into res.multiplets.
  template <int W>
  void build_multiplets(int worker, Prepared& p);

  const Netlist* nl_;
  DiagnosisOptions opts_;
  // Borrowed engine state; the owner keeps it alive.
  const ObservationPoints* points_;
  ObservationConeCache* cones_;
  GoodBlockCache* goods_;
  ThreadPool* pool_;
  std::vector<SweepWorker> workers_;
};

}  // namespace scanpower
