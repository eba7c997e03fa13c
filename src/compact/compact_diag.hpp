#pragma once
// Stuck-at diagnosis over MISR-compacted responses.
//
// The tester reports one signature per window of patterns instead of
// per-point failures (SignatureLog), so diagnosis cannot compare
// (pattern, observation point) pairs -- it compares signatures. For a
// single stuck-at candidate the faulty signature is predictable without
// re-compacting the whole response: by MISR linearity
//     sig(faulty) = sig(good) ^ sig(diff),
// so every candidate's packed cone sweep (FaultConeEvaluator, the same
// engine full-response diagnosis uses) collects its response diff, the
// diff is X-masked and compacted, and windows are matched:
//
//   TFSF  window fails on the tester AND the candidate predicts exactly
//         the observed signature (explained window)
//   TFSP  window fails on the tester, candidate predicts pass -- or
//         predicts a *different* corruption (counted in both TFSP and
//         TPSF: it neither explains the observation nor stays silent)
//   TPSF  window passes on the tester, candidate predicts a failure
//
// Ranking reuses CandidateScore/DiagnosisResult verbatim (counters are
// window counts): exact explanations first, then ascending TFSP + TPSF,
// then descending TFSF. Candidates are scored round-robin across the
// worker pool from per-worker scratch; counters depend only on the
// candidate's full diff (never on block partitioning or scheduling), so
// rankings are bit-identical for every (block width, thread count)
// configuration.
//
// Cone pruning is necessarily weaker than the full-response engine's: a
// failing window names no failing point, so a candidate must merely lie
// in the union of the *unmasked* points' cones for every failing window
// (compaction trades diagnosability for bandwidth). Distinct unmasked
// sets are deduplicated before intersecting; without X-masking all
// windows share one union and the back-trace runs once.
//
// Construction is Diagnoser's (diagnose.hpp): the engine borrows pool,
// points, cones and good blocks, and the owning ScanSession also caches
// the (X-mask plan, expected signatures) pair per MISR configuration and
// passes it to every diagnose() call, so nothing is rebuilt per log.

#include <span>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/pattern.hpp"
#include "compact/misr.hpp"
#include "compact/signature_log.hpp"
#include "compact/xmask.hpp"
#include "diag/diagnose.hpp"
#include "diag/response.hpp"
#include "netlist/netlist.hpp"
#include "util/thread_pool.hpp"

namespace scanpower {

class SignatureDiagnoser {
 public:
  /// Borrows every shared piece (see "Construction" above). Takes the
  /// engine knobs from DiagnosisOptions (block_words, backend,
  /// cone_pruning, telemetry); the MISR configuration comes from the
  /// diagnosed log. score_early_exit does not apply -- window counters are
  /// too coarse for a sound mid-sweep bound -- and is ignored.
  /// opts.num_threads is superseded by the pool's size.
  SignatureDiagnoser(const Netlist& nl, DiagnosisOptions opts,
                     ThreadPool& pool, const ObservationPoints& points,
                     ObservationConeCache& cones, GoodBlockCache& goods);

  const DiagnosisOptions& options() const { return opts_; }
  const ObservationPoints& points() const { return *points_; }

  /// Scores `faults` against a compacted signature log. `patterns` must be
  /// fully specified (the session's zero-filled view) and be the storage
  /// the borrowed good-block cache is bound to; `plan` is the X-mask plan
  /// of the original patterns at the log's window size, and `expected`
  /// the good-machine window signatures under that plan -- state the
  /// session caches per MISR configuration. The log's own expected
  /// signatures must equal `expected`, which catches pattern-set or
  /// MISR-configuration mismatches up front.
  DiagnosisResult diagnose(std::span<const TestPattern> patterns,
                           std::span<const Fault> faults,
                           const SignatureLog& log, const XMaskPlan& plan,
                           std::span<const std::uint64_t> expected);

 private:
  /// The op sets prune_by_cone_unions intersects for `log`: the unmasked
  /// points of each distinct failing window.
  std::vector<std::vector<std::uint32_t>> failing_op_sets(
      const SignatureLog& log, const XMaskPlan& plan) const;

  template <int W>
  void score_candidates(std::span<const TestPattern> patterns,
                        const SignatureLog& log, const XMaskPlan& plan,
                        const MisrCompactor& compactor,
                        std::vector<CandidateScore>& scores);

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
