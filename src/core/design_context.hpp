#pragma once
// DesignContext: the immutable, shareable design-keyed layer of the
// service stack.
//
// Every ScanSession runs on one: the netlist, its collapsed fault list,
// observation points and fanin cones, and the per-(netlist, model)
// leakage tables. An owning ScanSession(netlist, options) builds a private
// context; a multi-tenant service builds one per *design* (SessionPool)
// and references it from many concurrent sessions. Either way the session
// keeps only its private pattern-keyed caches and worker pool.
//
//   - build: the constructor builds the cheap pieces eagerly (structural
//     hash, collapsed faults, ObservationPoints, GateLeakageTables). The
//     cones -- most of the build cost -- materialize on the first cones()
//     call under std::call_once: concurrent first tenants block rather
//     than duplicate, and flow-only sessions never pay for them.
//   - read-only after publish: once a shared_ptr<const DesignContext> is
//     handed out, nothing mutates but that one-time cone build and relaxed
//     cache tallies -- so the bit-identical-across-num_threads house rule
//     extends to "across concurrent tenants": N sessions sharing one
//     context return byte-identical results to N isolated sessions.
//
// Sessions reference a context via shared_ptr, so SessionPool eviction can
// never invalidate in-flight work: the last referencing session keeps the
// context alive.

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/flow.hpp"

namespace scanpower {

/// Validates every engine knob of `opts` against `nl` up front -- bad
/// thread counts, backends, MISR configurations and sample counts throw
/// Error with the knob named, prefixed by `who`. Shared by
/// ScanSession and DesignContext so both entry points reject the same
/// misconfigurations with the same messages.
void validate_flow_options(const Netlist& nl, const FlowOptions& opts,
                           const char* who);

class DesignContext {
 public:
  /// Copies the (finalized) netlist and builds the design-keyed layer.
  /// `opts` is validated up front exactly like ScanSession's constructor;
  /// its leakage_params key the leakage model, and it supplies the default
  /// options of sessions created from this context. `telemetry`
  /// (optional) receives the build counters; the context does not retain
  /// it past construction.
  explicit DesignContext(Netlist nl, FlowOptions opts = {},
                         Telemetry* telemetry = nullptr);

  DesignContext(const DesignContext&) = delete;
  DesignContext& operator=(const DesignContext&) = delete;

  const Netlist& netlist() const { return nl_; }
  const FlowOptions& options() const { return opts_; }
  const LeakageModel& leakage_model() const { return model_; }

  /// Collapsed stuck-at fault universe of the design.
  const std::vector<Fault>& faults() const { return faults_; }
  /// Observation-point index space of the full-scan response.
  const ObservationPoints& points() const { return points_; }
  /// Fanin cones of every observation point. The first call builds them
  /// all under std::call_once, so afterwards concurrent cone() calls can
  /// only hit -- reads plus relaxed tallies. Mutable through const: the
  /// reference is handed to the diagnosers' borrowing constructors, and
  /// post-publish the object is logically immutable.
  ObservationConeCache& cones() const;
  /// Lifetime cone() hit/miss tallies, read without forcing the build.
  std::uint64_t cone_hits() const { return cones_.hits(); }
  std::uint64_t cone_misses() const { return cones_.misses(); }
  /// Per-(netlist, model) state->leakage tables.
  const GateLeakageTables& leakage_tables() const { return tables_; }

  /// Structural hash of the design (name, gate types, CSR fanins, outputs,
  /// scan cells): the SessionPool key. Computed once at construction.
  std::uint64_t design_hash() const { return hash_; }
  /// The same hash for a netlist without building a context -- pool lookup.
  static std::uint64_t hash_design(const Netlist& nl);

 private:
  Netlist nl_;
  FlowOptions opts_;
  LeakageModel model_;
  std::uint64_t hash_ = 0;

  std::vector<Fault> faults_;
  ObservationPoints points_;
  GateLeakageTables tables_;

  mutable std::once_flag cones_once_;
  mutable ObservationConeCache cones_;
};

}  // namespace scanpower
