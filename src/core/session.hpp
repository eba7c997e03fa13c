#pragma once
// ScanSession: the stateful service API over one (netlist, options) pair.
//
// A one-shot entry point would rebuild the same expensive engine state
// per call: the collapsed fault list, the observation-point index space
// and its fanin cones, the per-(netlist, model) leakage tables, the
// packed good-machine blocks of the pattern set, X-mask plans and
// expected signatures, and a fresh worker pool. The paper's flow is
// inherently multi-query over a fixed design -- ablation columns,
// per-chip failure logs, fill trials -- so a service answering K queries
// should pay that setup once. ScanSession holds all of it and exposes the
// flows as methods:
//
//   ScanSession session(netlist, options);   // validates options up front
//   session.bind_patterns(patterns);          // or bind_tests() for ATPG
//   DiagnosisResult r = session.diagnose(evidence);
//   std::vector<DiagnosisResult> rs = session.diagnose_batch(batch);
//   FlowResult f = session.run_flow();
//   ScanPowerResult p = session.power_report();
//
// Evidence is the unified tester report: a full per-(pattern, point)
// FailureLog or a MISR-compacted SignatureLog; diagnose() dispatches
// internally, so callers hit one entry point regardless of tester
// compaction. Cache keys: the bound pattern set (by content) keys the
// zero-filled view, the good-block cache and the good response matrix;
// each MisrConfig keys one (X-mask plan, expected signatures) entry on
// top of that. Every result is bit-identical to a fresh session's for any
// num_threads -- the engines' determinism contracts make shared pools and
// caches result-neutral.
//
// State has two layers. The design-keyed layer -- netlist, collapsed
// faults, observation points and cones, leakage tables -- always lives in
// an immutable DesignContext (design_context.hpp): the owning constructor
// builds a private one, and the context constructor references a shared
// one, e.g. out of a SessionPool (session_pool.hpp). The session itself
// keeps the worker pool, the observability, the ATPG set and the
// pattern-keyed caches, each built on first use. Results are bit-identical
// either way.
//
// Thread-safety: a session is a single-threaded object (its methods fan
// work across the internal pool themselves); use one session per
// concurrent client, or serialize calls externally. Any number of
// sessions may share one DesignContext concurrently.

#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <variant>
#include <vector>

#include "core/design_context.hpp"
#include "core/flow.hpp"
#include "util/telemetry.hpp"

namespace scanpower {

/// What a tester reports for one defective chip: the full failure log, or
/// the per-window MISR signature log when responses are time-compacted.
/// ScanSession::diagnose() handles both through one entry point.
using Evidence = std::variant<FailureLog, SignatureLog>;

class ScanSession {
 public:
  /// Validates `opts` up front -- bad thread counts, backends, MISR
  /// configurations and sample counts throw Error here with the knob
  /// named, instead of deep inside the engines -- and moves the
  /// (finalized) netlist into a private DesignContext, so borrowed engine
  /// state can never dangle.
  explicit ScanSession(Netlist nl, FlowOptions opts = {});

  /// Tenant session over a shared immutable DesignContext: the design-
  /// keyed layer is referenced, not rebuilt, so construction is cheap and
  /// many sessions may share one context concurrently (each session itself
  /// stays single-threaded). `opts` carries this tenant's engine knobs
  /// (threads, backend...) and is validated exactly like the
  /// owning constructor's; its leakage_params must equal the context's
  /// (they key the shared tables), else Error. The one-argument form
  /// inherits the context's options. Results are bit-identical to an
  /// isolated ScanSession(context->netlist(), opts).
  ScanSession(std::shared_ptr<const DesignContext> ctx, FlowOptions opts);
  explicit ScanSession(std::shared_ptr<const DesignContext> ctx);
  ~ScanSession();

  ScanSession(const ScanSession&) = delete;
  ScanSession& operator=(const ScanSession&) = delete;

  const Netlist& netlist() const { return nl(); }
  const FlowOptions& options() const { return opts_; }
  const LeakageModel& leakage_model() const { return ctx_->leakage_model(); }

  // ---- telemetry -----------------------------------------------------------

  /// Session-scoped metrics registry and phase-trace recorder: every
  /// engine this session builds writes its counters and spans here (the
  /// options' telemetry pointer is wired up in the constructor). Enable
  /// span recording with telemetry().trace.set_enabled(true). The scope
  /// is always live; a standalone engine given a null `Telemetry*` writes
  /// nothing.
  Telemetry& telemetry() { return telemetry_; }
  /// Point-in-time snapshot of the session's counters. Registry slots are
  /// summed over shards; cache and pool tallies are copied from the owning
  /// objects (absolute lifetime values, so repeated snapshots never
  /// double-count). Call between queries, not concurrently with one.
  MetricsSnapshot metrics();

  // ---- shared engine state -------------------------------------------------

  /// The one worker pool every pool-borrowing engine of this session
  /// runs on, sized to the largest resolved thread knob among its
  /// borrowers (diag, observability, fill; fault simulation inside tests()
  /// manages its own transient pool). All engines produce bit-identical
  /// results for any pool size, so sharing is result-neutral.
  ThreadPool& pool();
  /// Collapsed stuck-at fault universe of the netlist.
  const std::vector<Fault>& faults() { return ctx_->faults(); }
  /// Observation-point index space of the full-scan response.
  const ObservationPoints& points() { return ctx_->points(); }
  /// Per-(netlist, model) state->leakage tables (packed power engines).
  const GateLeakageTables& leakage_tables() { return ctx_->leakage_tables(); }
  /// Leakage observability under options().observability.
  const LeakageObservability& observability();
  /// ATPG test set under options().tpg.
  const TestSet& tests();

  // ---- pattern binding -----------------------------------------------------

  /// Binds the pattern set diagnose()/inject() run against: copies the
  /// patterns, zero-fills X bits for the binary sweeps and (re)builds the
  /// good-machine block cache. Rebinding with identical content is a
  /// no-op; different content invalidates every pattern-keyed cache.
  /// Throws on an empty set.
  void bind_patterns(std::span<const TestPattern> patterns);
  /// bind_patterns(tests().patterns) -- generates the ATPG set on first use.
  void bind_tests();
  bool has_patterns() const { return has_patterns_; }
  /// The bound pattern set, as given (X bits preserved).
  std::span<const TestPattern> patterns() const { return bound_; }

  // ---- diagnosis -----------------------------------------------------------

  /// Diagnoses one tester report against the bound pattern set; dispatch
  /// on the Evidence alternative (full-response vs compacted) is internal.
  DiagnosisResult diagnose(const Evidence& evidence);

  /// Diagnoses a batch of independent tester reports (alternatives may be
  /// mixed; results come back in input order). Shared engine state is
  /// paid once for the whole batch and full-response logs fan out across
  /// the worker pool; every result is bit-identical to a sequential
  /// diagnose() call on the same evidence.
  std::vector<DiagnosisResult> diagnose_batch(
      std::span<const Evidence> evidence);

  /// Synthetic device-under-diagnosis: the failure log a tester would
  /// record for a chip carrying exactly fault `f` under the bound set.
  FailureLog inject(const Fault& f);
  /// Multi-fault chip: every fault in `faults` at once, interactions
  /// modelled exactly (ResponseCapture's merged-cone sweep).
  FailureLog inject(std::span<const Fault> faults);
  /// Compacted analogues under options().misr (or an explicit config).
  SignatureLog inject_compacted(const Fault& f);
  SignatureLog inject_compacted(const Fault& f, const MisrConfig& cfg);
  SignatureLog inject_compacted(std::span<const Fault> faults);
  SignatureLog inject_compacted(std::span<const Fault> faults,
                                const MisrConfig& cfg);

  // ---- power ---------------------------------------------------------------

  /// Don't-care fill under options().fill (tables borrowed from the
  /// session); fills X positions of the given patterns in place.
  FillResult fill(std::vector<Logic>& pi_pattern,
                  std::vector<Logic>& mux_pattern,
                  const std::vector<bool>& mux_eligible);

  /// Scan-shift power of `tests` on the session netlist under the given
  /// shift-control values (empty spans = uncontrolled, the traditional-
  /// scan column); the no-argument form evaluates the session's ATPG set.
  ScanPowerResult power_report(const TestSet& tests,
                               std::span<const Logic> pi_control = {},
                               std::span<const Logic> mux_control = {});
  ScanPowerResult power_report();

  /// The full three-way Table-I comparison (traditional / input control /
  /// proposed) on the session netlist, reusing the cached test set,
  /// observability and leakage tables across calls.
  FlowResult run_flow();
  /// Only the proposed method, on a caller-supplied test set; building
  /// block for ablation sweeps.
  ScanPowerResult run_proposed(const TestSet& tests,
                               FlowResult* details = nullptr);

 private:
  Diagnoser& diagnoser();
  SignatureDiagnoser& sig_diagnoser();
  ResponseCapture& capture();
  /// (X-mask plan, expected signatures, synthetic tester) of one MISR
  /// configuration over the bound pattern set.
  SignatureCapture& compact_state(const MisrConfig& cfg);
  /// options().fill with `minimize_leakage` set; the packed engine borrows
  /// the session's leakage tables and pool.
  FillOptions fill_options(bool minimize_leakage);

  std::span<const TestPattern> effective_patterns() const {
    return filled_.empty() ? std::span<const TestPattern>(bound_)
                           : std::span<const TestPattern>(filled_);
  }
  void require_bound() const;
  void require_fully_specified(const char* what) const;
  /// Typed, named errors for out-of-range failure records: the hardened
  /// text loaders catch these at parse time, but in-memory logs reach the
  /// session unchecked.
  void validate_evidence(const FailureLog& log);

  DiagnosisResult diagnose_full(const FailureLog& log);
  DiagnosisResult diagnose_compacted(const SignatureLog& log);

  const Netlist& nl() const { return ctx_->netlist(); }

  /// The design-keyed layer, private or shared. Declared first: every
  /// engine below may borrow state from it, so it must outlive them
  /// (members destroy in reverse order).
  std::shared_ptr<const DesignContext> ctx_;
  FlowOptions opts_;
  /// Declared before every engine: engines hold a pointer to it via their
  /// options, so it must outlive them (members destroy in reverse order).
  Telemetry telemetry_;

  // Lazily built session state. Declaration order doubles as the
  // destruction contract: the pool outlives every engine borrowing it.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<LeakageObservability> obs_;
  std::unique_ptr<TestSet> tests_;

  // Pattern-keyed state (invalidated by bind_patterns with new content).
  bool has_patterns_ = false;
  std::vector<TestPattern> bound_;   ///< as given, X preserved
  std::vector<TestPattern> filled_;  ///< zero-filled copy; empty if not needed
  GoodBlockCache goods_;
  /// Per-MisrConfig (width, poly, window) compaction state; each entry
  /// rebinds itself lazily when the bound pattern set changes.
  std::map<std::tuple<int, std::uint64_t, int>,
           std::unique_ptr<SignatureCapture>>
      compact_;

  std::unique_ptr<ResponseCapture> capture_;
  std::unique_ptr<Diagnoser> diagnoser_;
  std::unique_ptr<SignatureDiagnoser> sig_diagnoser_;
};

}  // namespace scanpower
