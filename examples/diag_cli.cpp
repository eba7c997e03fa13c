// Fault-diagnosis front end: read a .bench / structural .v design, obtain
// one or more failing-pattern logs (from tester files, or synthetically by
// injecting a fault), and print the ranked candidate report(s). Built on
// the stateful ScanSession API: the design's engine state (collapsed
// faults, observation cones, good-machine blocks, worker pool) is paid
// once and shared by every log -- a batch of K logs costs K scoring
// passes, not K full setups.
//
//   diag_cli <design.bench|design.v> [options]
//     --log <file>         load a failure log (repeatable: each --log adds
//                          one log to the batch; see diag/response.hpp
//                          format; name-based "po:<net>"/"ff:<cell>"
//                          records resolve against the loaded design)
//     --inject <fault>     inject "net/sa0" / "gate.in2/sa1" synthetically
//     --inject-index <n>   inject the n-th collapsed fault
//     --save-log <file>    write the (synthetic or loaded) log back out;
//                          single-log runs only
//     --named-log          save name-based records (survive renumbering)
//     --no-early-exit      score every candidate to completion
//     --random <n>         use n random patterns instead of the ATPG set
//     --seed <n>           pattern seed
//     --threads <n>        candidate-scoring worker threads (0 = all cores)
//     --backend <b>        kernel backend (auto, scalar, avx2, avx512)
//     --no-prune           score the whole fault list (skip cone back-trace)
//     --top <n>            report size (default 10)
//     --json <file>        machine-readable result dump (an object for a
//                          single log, an array of objects for a batch);
//                          each object holds the same result fields as a
//                          diag_server result line (net::result_json),
//                          plus this run's "options", "noise" (with the
//                          --noise-* flags), "misr" (signature logs) and
//                          "metrics" (the query's phase timings and work
//                          tallies)
//     --no-map             skip NAND/NOR/INV technology mapping
//     --verbose            narrate progress (same as --log-level info)
//     --log-level <l>      stderr log threshold: debug|info|warn|error|off
//
//   Telemetry (the session's own metrics registry and trace recorder):
//     --metrics            print the session's metrics snapshot (text)
//     --metrics=json       ... as a JSON object on stdout
//     --trace <file>       record nested phase spans (session -> diagnose
//                          -> prune/score/cover) and write a Chrome
//                          trace_event JSON file (load via chrome://tracing
//                          or https://ui.perfetto.dev)
//
//   Response compaction (diagnosis over MISR signatures):
//     --compact            compact responses into per-window MISR signatures
//                          and diagnose window signature mismatches instead
//                          of per-point failures
//     --misr-width <n>     MISR register width in bits, 4..64 (default 32;
//                          implies --compact)
//     --misr-poly <hex>    MISR feedback polynomial, Galois right-shift form,
//                          top bit required (default: per-width CRC constant;
//                          implies --compact)
//     --window <k>         patterns compacted per signature window
//                          (default 32; implies --compact)
//     --signature-log <f>  load a signature log (repeatable, may be mixed
//                          with --log; its recorded MISR configuration
//                          wins; implies --compact)
//
//   Tester noise (diag/noise.hpp harness; applies to every log, loaded or
//   injected, before --save-log so the noisy log can be written out):
//     --noise-drop <r>     drop each failing record/window with rate r in
//                          [0,1] (intermittent defects, retest passes)
//     --noise-flip <r>     spurious-failure rate: flip ~r * |records|
//                          passing entries to failing (tester glitches)
//     --noise-seed <n>     noise RNG seed (default 0x5eeded); same seed +
//                          same log = byte-identical corruption
//     --tolerance <n>      DiagnosisOptions::noise_tolerance -- candidates
//                          within n mismatched (pattern, point) entries of
//                          the leader survive early-exit and tie ranking
//     --top-set <n>        report at most n multi-fault suspect sets
//                          (0 disables the multiplet cover stage)
//
// Batches mix freely: two failure logs and a signature log in one run hit
// the same session.diagnose_batch() entry point and come back in order.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "cli_common.hpp"
#include "core/session.hpp"
#include "diag/noise.hpp"
#include "net/framing.hpp"
#include "netlist/stats.hpp"
#include "techmap/techmap.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace scanpower;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <design.bench|design.v> [--log file]... "
      "[--signature-log file]...\n"
      "          [--inject fault | --inject-index n]\n"
      "          [--save-log file] [--named-log] [--random n] [--seed n]\n"
      "          [--threads n] [--no-prune]\n"
      "          [--backend auto|scalar|avx2|avx512]\n"
      "          [--no-early-exit] [--top n] [--json file] [--no-map]\n"
      "          [--verbose] [--log-level debug|info|warn|error|off]\n"
      "          [--metrics | --metrics=json] [--trace file]\n"
      "          [--compact] [--misr-width n] [--misr-poly hex] [--window k]\n"
      "          [--noise-drop r] [--noise-flip r] [--noise-seed n]\n"
      "          [--tolerance n] [--top-set n]\n"
      "\n"
      "  --log / --signature-log are repeatable and may be mixed: all logs\n"
      "  are diagnosed in one batch against one shared engine session, and\n"
      "  --json then emits one array with a result object per log (in\n"
      "  input order); each object holds the diag_server result fields\n"
      "  plus this run's options, noise, misr and metrics sections.\n"
      "  --compact diagnoses MISR-compacted per-window\n"
      "  signatures for the injection modes; --misr-width/--misr-poly/\n"
      "  --window configure the compactor (and imply --compact).\n",
      argv0);
  return 2;
}

/// One --json entry: the result fields every diagnosis front end emits
/// (net::write_result_fields, byte for byte what a diag_server result
/// line carries) plus this run's context -- engine options, the noise
/// harness, a signature log's MISR configuration and the query's timings.
void write_json_entry(JsonWriter& j, const Netlist& nl,
                      const DiagnosisOptions& dopts, const std::string& source,
                      const Evidence& ev, const DiagnosisResult& res,
                      std::size_t num_patterns, const NoiseOptions* nopts,
                      const NoiseStats* nstats) {
  j.begin_object();
  net::write_result_fields(j, res, nl, nl.name(), source, num_patterns,
                           dopts.max_report);
  j.begin_object("options");
  j.field("backend", backend_name(dopts.backend));
  j.field("num_threads", dopts.num_threads);
  j.field("cone_pruning", dopts.cone_pruning);
  j.field("score_early_exit", dopts.score_early_exit);
  j.field("noise_tolerance", dopts.noise_tolerance);
  j.end_object();
  if (nopts != nullptr) {
    j.begin_object("noise");
    j.field("drop_rate", nopts->drop_rate);
    j.field("flip_rate", nopts->flip_rate);
    j.field("seed", nopts->seed);
    j.field("dropped", static_cast<std::uint64_t>(nstats->dropped));
    j.field("flipped", static_cast<std::uint64_t>(nstats->flipped));
    j.end_object();
  }
  if (const SignatureLog* slog = std::get_if<SignatureLog>(&ev)) {
    j.begin_object("misr");
    j.field("width", slog->misr.width);
    j.field("poly", strprintf("%llx", static_cast<unsigned long long>(
                                          slog->misr.resolved_poly())));
    j.field("window", slog->misr.window);
    j.end_object();
  }
  j.begin_object("metrics");
  j.field("prune_us", res.stats.prune_us);
  j.field("score_us", res.stats.score_us);
  j.field("cover_us", res.stats.cover_us);
  j.field("sweep_calls", res.stats.sweep_calls);
  j.field("sweep_aborts", res.stats.sweep_aborts);
  j.field("cone_cache_hits", res.stats.cone_cache_hits);
  j.field("cone_cache_misses", res.stats.cone_cache_misses);
  j.end_object();
  j.end_object();
}

void print_ranked(const Netlist& nl, const DiagnosisResult& res,
                  std::size_t top) {
  std::printf("%5s %-28s %8s %8s %8s %6s\n", "rank", "fault", "TFSF", "TFSP",
              "TPSF", "exact");
  for (std::size_t i = 0; i < res.ranked.size() && i < top; ++i) {
    const CandidateScore& sc = res.ranked[i];
    std::printf("%5zu %-28s %8llu %8llu %8llu %6s\n", res.rank_of(sc.fault),
                sc.fault.to_string(nl).c_str(),
                static_cast<unsigned long long>(sc.tfsf),
                static_cast<unsigned long long>(sc.tfsp),
                static_cast<unsigned long long>(sc.tpsf),
                sc.exact() ? "yes" : "no");
  }
  if (res.ranked.size() > top) {
    std::printf("  ... %zu more candidates\n", res.ranked.size() - top);
  }
}

void print_multiplets(const Netlist& nl, const DiagnosisResult& res) {
  if (res.union_fallback) {
    std::printf("  (single-fault cone intersection was empty or noisy: "
                "union-pruning fallback engaged)\n");
  }
  if (res.multiplets.empty()) return;
  const std::size_t total =
      res.multiplets.front().covered + res.multiplets.front().uncovered;
  std::printf("\nmulti-fault suspect sets:\n");
  for (std::size_t s = 0; s < res.multiplets.size(); ++s) {
    const SuspectSet& set = res.multiplets[s];
    std::string joined;
    for (const CandidateScore& sc : set.members) {
      if (!joined.empty()) joined += " + ";
      joined += sc.fault.to_string(nl);
    }
    std::printf("  set %zu: {%s} explains %zu/%zu failing patterns\n", s + 1,
                joined.c_str(), set.covered, total);
  }
}

void print_result(const Netlist& nl, const std::string& source,
                  const Evidence& ev, const DiagnosisResult& res,
                  std::size_t top) {
  if (std::holds_alternative<SignatureLog>(ev)) {
    std::printf("\n[%s] %zu/%zu failing windows (%zu masked point-windows) -> "
                "%zu/%zu candidates after back-trace\n\n",
                source.c_str(), res.num_failing_windows, res.num_windows,
                res.num_masked, res.num_candidates, res.num_faults);
  } else {
    std::printf("\n[%s] %zu failures (%zu patterns, %zu observation points) "
                "-> %zu/%zu candidates after back-trace (%zu dropped "
                "early)\n\n",
                source.c_str(), res.num_failures, res.num_failing_patterns,
                res.num_failing_points, res.num_candidates, res.num_faults,
                res.num_dropped);
  }
  print_ranked(nl, res, top);
  print_multiplets(nl, res);
  const DiagnosisStats& st = res.stats;
  std::printf("timing: prune %llu us, score %llu us, cover %llu us "
              "(%llu sweeps, %llu aborted)\n",
              static_cast<unsigned long long>(st.prune_us),
              static_cast<unsigned long long>(st.score_us),
              static_cast<unsigned long long>(st.cover_us),
              static_cast<unsigned long long>(st.sweep_calls),
              static_cast<unsigned long long>(st.sweep_aborts));
}

bool evidence_has_failures(const Evidence& ev) {
  if (const FailureLog* flog = std::get_if<FailureLog>(&ev)) {
    return !flog->failures.empty();
  }
  return std::get<SignatureLog>(ev).num_failing_windows() != 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const char* path = nullptr;
  struct FileLog {
    const char* path;
    bool signature;
  };
  std::vector<FileLog> file_logs;  // in argv order
  const char* inject_spec = nullptr;
  const char* inject_index = nullptr;
  const char* save_log_path = nullptr;
  const char* json_path = nullptr;
  const char* trace_path = nullptr;
  bool metrics_text = false;
  bool metrics_json = false;
  long num_random = 0;
  std::uint64_t seed = 0xd1a6ULL;
  bool do_map = true;
  bool named_log = false;
  bool compact = false;
  bool noise = false;
  MisrConfig misr;
  NoiseOptions nopts;
  DiagnosisOptions dopts;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (cli::value_flag(argc, argv, i, "--log", v)) {
      file_logs.push_back({v, false});
    } else if (cli::flag(argv, i, "--compact")) {
      compact = true;
    } else if (cli::value_flag(argc, argv, i, "--misr-width", misr.width)) {
      compact = true;
    } else if (cli::hex_value_flag(argc, argv, i, "--misr-poly", misr.poly)) {
      compact = true;
    } else if (cli::value_flag(argc, argv, i, "--window", misr.window)) {
      compact = true;
    } else if (cli::value_flag(argc, argv, i, "--signature-log", v)) {
      // Signature logs are inherently compacted; no --compact implied, so
      // they mix with --log files in one batch.
      file_logs.push_back({v, true});
    } else if (cli::value_flag(argc, argv, i, "--inject", inject_spec)) {
    } else if (cli::value_flag(argc, argv, i, "--inject-index", inject_index)) {
    } else if (cli::value_flag(argc, argv, i, "--save-log", save_log_path)) {
    } else if (cli::value_flag(argc, argv, i, "--random", num_random)) {
    } else if (cli::value_flag(argc, argv, i, "--seed", seed)) {
    } else if (cli::value_flag(argc, argv, i, "--threads", dopts.num_threads)) {
    } else if (cli::backend_flag(argc, argv, i, "--backend", dopts.backend)) {
    } else if (cli::flag(argv, i, "--no-prune")) {
      dopts.cone_pruning = false;
    } else if (cli::flag(argv, i, "--no-early-exit")) {
      dopts.score_early_exit = false;
    } else if (cli::flag(argv, i, "--named-log")) {
      named_log = true;
    } else if (cli::value_flag(argc, argv, i, "--noise-drop",
                               nopts.drop_rate)) {
      noise = true;
    } else if (cli::value_flag(argc, argv, i, "--noise-flip",
                               nopts.flip_rate)) {
      noise = true;
    } else if (cli::value_flag(argc, argv, i, "--noise-seed", nopts.seed)) {
    } else if (cli::value_flag(argc, argv, i, "--tolerance",
                               dopts.noise_tolerance)) {
    } else if (cli::value_flag(argc, argv, i, "--top-set",
                               dopts.max_multiplets)) {
      dopts.multiplets = dopts.max_multiplets > 0;
    } else if (cli::value_flag(argc, argv, i, "--top", dopts.max_report)) {
    } else if (cli::value_flag(argc, argv, i, "--json", json_path)) {
    } else if (cli::value_flag(argc, argv, i, "--trace", trace_path)) {
    } else if (cli::flag(argv, i, "--metrics")) {
      metrics_text = true;
    } else if (cli::flag(argv, i, "--metrics=json")) {
      metrics_json = true;
    } else if (cli::flag(argv, i, "--no-map")) {
      do_map = false;
    } else if (cli::flag(argv, i, "--verbose")) {
      set_log_level(LogLevel::Info);
    } else if (cli::value_flag(argc, argv, i, "--log-level", v)) {
      set_log_level(cli::parse_log_level(v));
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      path = argv[i];
    }
  }
  if (!path) return usage(argv[0]);
  const bool inject_mode = inject_spec != nullptr || inject_index != nullptr;
  if (inject_mode ? !file_logs.empty() || (inject_spec && inject_index)
                  : file_logs.empty()) {
    std::fprintf(stderr,
                 "error: give either one --inject / --inject-index, or any "
                 "number of --log / --signature-log files\n");
    return 2;
  }
  const bool any_full_log =
      std::any_of(file_logs.begin(), file_logs.end(),
                  [](const FileLog& f) { return !f.signature; });
  if (compact && any_full_log) {
    std::fprintf(stderr,
                 "error: --compact diagnoses signature logs; use "
                 "--signature-log (or --inject) instead of --log\n");
    return 2;
  }
  // --save-log writes exactly one log. Count the run's logs the same way
  // for both modes (an injection is one synthetic log) so the guard can't
  // be skirted by --inject; a multi-log batch is a hard error naming the
  // conflicting flags instead of silently writing only one of the logs.
  const std::size_t num_logs = inject_mode ? 1 : file_logs.size();
  if (save_log_path && num_logs != 1) {
    const std::size_t num_sig =
        static_cast<std::size_t>(std::count_if(
            file_logs.begin(), file_logs.end(),
            [](const FileLog& f) { return f.signature; }));
    std::fprintf(stderr,
                 "error: --save-log writes a single log, but this run "
                 "diagnoses %zu (%zu --log, %zu --signature-log); drop "
                 "--save-log or reduce the batch to one log\n",
                 num_logs, file_logs.size() - num_sig, num_sig);
    return 2;
  }

  try {
    Netlist nl = load_design(path, do_map);
    std::printf("%s: %s\n", nl.name().c_str(),
                compute_stats(nl).to_string().c_str());

    // One session carries every shared piece of engine state -- faults,
    // observation cones, good-machine blocks, X-mask plans, the worker
    // pool -- across all logs of this run.
    FlowOptions fopts;
    fopts.diag = dopts;
    fopts.misr = misr;
    fopts.tpg.seed = seed;
    fopts.tpg.fault_sim.num_threads = dopts.num_threads;
    fopts.tpg.fault_sim.backend = dopts.backend;
    fopts.observability.backend = dopts.backend;
    fopts.fill.backend = dopts.backend;
    ScanSession session(std::move(nl), fopts);
    const Netlist& design = session.netlist();
    if (trace_path) session.telemetry().trace.set_enabled(true);

    // ---- pattern set ----------------------------------------------------
    if (num_random > 0) {
      Rng rng(seed);
      std::vector<TestPattern> patterns;
      for (long i = 0; i < num_random; ++i) {
        patterns.push_back(random_pattern(design, rng));
      }
      session.bind_patterns(patterns);
      std::printf("%zu random patterns (seed 0x%llx)\n", patterns.size(),
                  static_cast<unsigned long long>(seed));
    } else {
      session.bind_tests();
      std::printf("%zu ATPG patterns, %.1f%% fault coverage\n",
                  session.patterns().size(),
                  100.0 * session.tests().fault_coverage());
    }
    const std::size_t num_patterns = session.patterns().size();

    // ---- evidence -------------------------------------------------------
    // Every log, synthetic or loaded, takes one path: checked against the
    // applied pattern count, corrupted by the tester-noise harness, then
    // written by --save-log (so the noisy log can be re-diagnosed later).
    // Noise stats are kept per log for the JSON dump.
    const NoiseModel noise_model(nopts);  // validates the rates up front
    std::vector<NoiseStats> noise_stats;
    std::vector<Evidence> evidence;
    std::vector<std::string> sources;
    const auto admit = [&](auto log, const std::string& source) {
      constexpr bool kSig = std::is_same_v<decltype(log), SignatureLog>;
      const char* kind = kSig ? "signature" : "failure";
      SP_CHECK(log.num_patterns == num_patterns,
               strprintf("%s: %s log pattern count does not match the "
                         "applied set",
                         source.c_str(), kind));
      NoiseStats st;
      if (noise) {
        if constexpr (kSig) {
          log = noise_model.corrupt(log, &st);
        } else {
          log = noise_model.corrupt(log, session.points().size(), &st);
        }
        std::printf("noise: dropped %zu failing %s, %s %zu (seed 0x%llx)\n",
                    st.dropped, kSig ? "windows" : "records",
                    kSig ? "garbled" : "flipped", st.flipped,
                    static_cast<unsigned long long>(nopts.seed));
      }
      if (save_log_path) {
        if constexpr (kSig) {
          save_signature_log_file(save_log_path, log);
        } else {
          save_failure_log_file(save_log_path, log, &design,
                                &session.points(), named_log);
        }
        std::printf("wrote %s log to %s\n", kind, save_log_path);
      }
      noise_stats.push_back(st);
      evidence.push_back(std::move(log));
      sources.push_back(source);
    };
    if (inject_mode) {
      const Fault injected =
          inject_spec ? parse_fault(design, inject_spec)
                      : parse_fault_index(session.faults(), inject_index);
      const std::string source = "injected " + injected.to_string(design);
      if (compact) {
        SignatureLog slog = session.inject_compacted(injected);
        std::printf("%s: %zu/%zu failing windows\n", source.c_str(),
                    slog.num_failing_windows(), slog.num_windows());
        std::printf("MISR width %d, poly %llx, window %d patterns\n",
                    slog.misr.width,
                    static_cast<unsigned long long>(slog.misr.resolved_poly()),
                    slog.misr.window);
        admit(std::move(slog), source);
      } else {
        FailureLog log = session.inject(injected);
        std::printf("%s: %zu failures\n", source.c_str(), log.failures.size());
        admit(std::move(log), source);
      }
    } else {
      // Load in argv order: batch results come back index-aligned, so the
      // report / JSON array order must match the flags as given.
      for (const FileLog& f : file_logs) {
        if (f.signature) {
          admit(load_signature_log_file(f.path), f.path);
        } else {
          admit(load_failure_log_file(f.path, &design, &session.points()),
                f.path);
        }
      }
    }

    // ---- diagnosis ------------------------------------------------------
    // A log with nothing failing means an undetected fault: diagnosing it
    // would rank every fault as a perfect explanation, so such entries are
    // skipped (empty result object) and flagged instead.
    std::vector<Evidence> todo;
    std::vector<std::size_t> todo_at;
    for (std::size_t i = 0; i < evidence.size(); ++i) {
      if (evidence_has_failures(evidence[i])) {
        todo.push_back(std::move(evidence[i]));
        todo_at.push_back(i);
      }
    }
    std::vector<DiagnosisResult> results(evidence.size());
    std::vector<DiagnosisResult> done = session.diagnose_batch(todo);
    for (std::size_t k = 0; k < done.size(); ++k) {
      results[todo_at[k]] = std::move(done[k]);
      evidence[todo_at[k]] = std::move(todo[k]);
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!evidence_has_failures(evidence[i])) {
        std::printf("\n[%s] no failures: nothing to diagnose (fault "
                    "undetected by this pattern set?)\n",
                    sources[i].c_str());
      } else {
        print_result(design, sources[i], evidence[i], results[i],
                     dopts.max_report);
      }
    }

    if (json_path) {
      std::ofstream f(json_path);
      SP_CHECK(f.good(), std::string("cannot write ") + json_path);
      JsonWriter j(f);
      const bool array = results.size() > 1;
      if (array) j.begin_array();
      for (std::size_t i = 0; i < results.size(); ++i) {
        write_json_entry(j, design, dopts, sources[i], evidence[i],
                         results[i], num_patterns, noise ? &nopts : nullptr,
                         noise ? &noise_stats[i] : nullptr);
      }
      if (array) j.end_array();
      std::printf("\nwrote JSON result%s to %s\n", array ? " array" : "",
                  json_path);
    }

    if (metrics_text || metrics_json) {
      const MetricsSnapshot snap = session.metrics();
      if (metrics_json) {
        std::ostringstream os;
        JsonWriter j(os);
        j.begin_object();
        snap.write_json(j);
        j.end_object();
        std::printf("%s\n", os.str().c_str());
      } else {
        std::ostringstream os;
        snap.write_text(os);
        std::printf("\nmetrics:\n%s", os.str().c_str());
      }
    }
    if (trace_path) {
      std::ofstream f(trace_path);
      SP_CHECK(f.good(), std::string("cannot write ") + trace_path);
      session.telemetry().trace.write_chrome_trace(f);
      std::printf("wrote Chrome trace (%zu spans) to %s\n",
                  session.telemetry().trace.events().size(), trace_path);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
