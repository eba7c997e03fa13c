#include "core/design_context.hpp"

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace scanpower {

namespace {

/// Explicit backends are a hard contract (Auto falls back gracefully):
/// fail construction with the knob named instead of deep inside an engine.
void check_backend(const char* who, SimBackend b, const char* knob) {
  if (b == SimBackend::Auto) return;
  SP_CHECK(backend_available(b),
           strprintf("%s: %s backend '%s' is not available on this "
                     "host (%s)",
                     who, knob, backend_name(b),
                     backend_compiled(b) ? "CPU lacks the required features"
                                         : "library built without its kernels"));
}

void check_threads(const char* who, int t, const char* knob) {
  SP_CHECK(t >= 0,
           strprintf("%s: %s must be >= 0 (0 = all hardware "
                     "threads; got %d)",
                     who, knob, t));
}

}  // namespace

void validate_flow_options(const Netlist& nl, const FlowOptions& opts,
                           const char* who) {
  SP_CHECK(nl.finalized(),
           strprintf("%s: netlist must be finalized (call Netlist::finalize "
                     "first)",
                     who));
  check_block_words(who, opts.tpg.fault_sim.block_words,
                    "tpg.fault_sim.block_words");
  check_block_words(who, opts.diag.block_words, "diag.block_words");
  check_backend(who, opts.tpg.fault_sim.backend, "tpg.fault_sim");
  check_backend(who, opts.diag.backend, "diag");
  check_backend(who, opts.observability.backend, "observability");
  check_backend(who, opts.fill.backend, "fill");
  check_threads(who, opts.tpg.fault_sim.num_threads,
                "tpg.fault_sim.num_threads");
  check_threads(who, opts.diag.num_threads, "diag.num_threads");
  check_threads(who, opts.observability.num_threads,
                "observability.num_threads");
  check_threads(who, opts.fill.num_threads, "fill.num_threads");
  SP_CHECK(opts.misr.width >= 4 && opts.misr.width <= 64,
           strprintf("%s: misr.width must be in 4..64 (got %d)", who,
                     opts.misr.width));
  SP_CHECK(opts.misr.window >= 1,
           strprintf("%s: misr.window must be >= 1 pattern (got %d)", who,
                     opts.misr.window));
  const std::uint64_t poly = opts.misr.resolved_poly();
  SP_CHECK((opts.misr.width == 64 || (poly >> opts.misr.width) == 0) &&
               ((poly >> (opts.misr.width - 1)) & 1) != 0,
           strprintf("%s: misr.poly %llx does not fit width %d with "
                     "the top (bit %d) tap set; the top tap keeps the MISR "
                     "transition invertible -- see default_misr_poly()",
                     who, static_cast<unsigned long long>(poly),
                     opts.misr.width, opts.misr.width - 1));
  SP_CHECK(opts.observability.samples > 1,
           strprintf("%s: observability.samples must be >= 2 (got %d)", who,
                     opts.observability.samples));
  SP_CHECK(opts.fill.trials >= 1,
           strprintf("%s: fill.trials must be >= 1 (got %d)", who,
                     opts.fill.trials));
}

namespace {

/// FNV-1a, the repo's usual cheap structural hash.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void mix_bytes(const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 0x100000001b3ULL;
    }
  }
};

}  // namespace

std::uint64_t DesignContext::hash_design(const Netlist& nl) {
  Fnv f;
  f.mix_bytes(nl.name().data(), nl.name().size());
  f.mix(nl.num_gates());
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    f.mix(static_cast<std::uint64_t>(nl.types_flat()[id]));
    for (GateId fin : nl.fanin_span(id)) f.mix(fin);
  }
  for (GateId po : nl.outputs()) f.mix(po);
  for (GateId ff : nl.dffs()) f.mix(ff);
  return f.h;
}

DesignContext::DesignContext(Netlist nl, FlowOptions opts,
                             Telemetry* telemetry)
    : nl_((validate_flow_options(nl, opts, "DesignContext"), std::move(nl))),
      opts_(std::move(opts)),
      model_(opts_.leakage_params),
      hash_(hash_design(nl_)),
      faults_(collapse_faults(nl_)),
      points_(nl_),
      tables_(nl_, model_),
      cones_(nl_, points_) {
  // SessionPool wraps the whole construction in the sessions.ctx_build_us
  // span; the counter here covers direct builds.
  SP_TELEM_ADD(telemetry, 0, CounterId::kCtxBuilds, 1);
  // Engines built by tenant sessions carry their own telemetry scopes;
  // the context itself never retains the pointer.
  opts_.diag.telemetry = nullptr;
  opts_.tpg.fault_sim.telemetry = nullptr;
}

ObservationConeCache& DesignContext::cones() const {
  // The lazy miss path shares DFS scratch and is serial-only, so every
  // cone is built here, once, before any tenant can look one up.
  std::call_once(cones_once_, [this] { cones_.build_all(); });
  return cones_;
}

}  // namespace scanpower
