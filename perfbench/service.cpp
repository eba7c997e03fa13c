// The diag_compacted workload: an in-process NetServer on loopback, driven
// by closed-loop DiagClient connections.
//
// Two designs (s713, s1423), each bound to 128 seed-generated patterns,
// and one connection per design. The evidence is one kind only,
// single-fault MISR signature logs written before set-up, so no assumed
// traffic mix shapes the numbers. One request is one `signature-log`
// command plus `flush`. Every wire result is compared byte for byte with
// net::result_json of an in-process ScanSession::diagnose() on the same
// evidence.
//
// With one pending job per design, the queue's round-robin dispatch
// alternates the designs, so the one diagnosis worker is never idle and
// every request waits for exactly one job of the other design. Three
// connections walking a mixed list instead made the queue's content, and
// so throughput, depend on how the clients' positions happened to line up.

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "compact/signature_log.hpp"
#include "core/work_queue.hpp"
#include "net/client.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "netlist/bench_io.hpp"
#include "scanbench.hpp"

namespace scanbench {

using namespace scanpower;

namespace {

constexpr std::size_t kPatterns = 128;
constexpr std::size_t kTop = 5;
const char* const kDesigns[] = {"s713", "s1423"};
/// Closed-loop connections, one per design. With one dispatcher thread and
/// one diagnosis worker (diag.num_threads = 1), clients plus busy engine
/// threads stay within a 4-core host.
constexpr std::size_t kClients = std::size(kDesigns);
constexpr int kLogsPerDesign = 16;
/// The load runs in this many equal segments; between two segments the
/// load pauses for kSetupsPerGap timed set-ups of a scratch service, so
/// the set-ups sample the host over the whole run, as the ops do.
constexpr int kSegments = 10;
constexpr int kSetupsPerGap = 3;

struct Design {
  std::string name;
  std::string path;
  std::uint64_t pattern_seed = 0;
  std::unique_ptr<ScanSession> ref;  ///< in-process reference
};

struct Request {
  std::size_t design = 0;
  std::string command;   ///< wire line: "signature-log <path>"
  Evidence evidence;     ///< the same evidence, loaded as the server loads it
  Fault injected;
  std::string expected;  ///< result_json of the in-process diagnose()
  bool hit = false;      ///< top answer names the injected fault
};

/// The workload's inputs: made once per run, before any timed set-up.
struct Inputs {
  std::vector<Design> designs;
  std::vector<Request> requests;
  FlowOptions flow;
};

/// One running service. Member order is the teardown contract: clients
/// disconnect before the server stops, the server before the queue, and
/// the telemetry scope outlives all three. Client c serves design c.
struct Service {
  Telemetry telemetry;
  std::unique_ptr<DiagnosisQueue> queue;
  std::unique_ptr<net::NetServer> server;
  std::vector<std::unique_ptr<net::DiagClient>> clients;
};

std::vector<TestPattern> make_patterns(const Netlist& nl, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TestPattern> p;
  for (std::size_t i = 0; i < kPatterns; ++i) p.push_back(random_pattern(nl, rng));
  return p;
}

void expect_ok(const std::string& line, const char* what) {
  if (line.find("\"ok\"") == std::string::npos) {
    throw Error(std::string("scanbench: ") + what + " refused: " + line);
  }
}

/// Writes the designs and the evidence files, builds the in-process
/// references and the expected wire results. Requests are grouped by
/// design.
void build_inputs(Inputs& in, const RunConfig& cfg) {
  for (std::size_t i = 0; i < std::size(kDesigns); ++i) {
    Design d;
    d.name = kDesigns[i];
    d.path = cfg.work_dir + "/" + d.name + ".bench";
    {
      std::ofstream f(d.path);
      write_bench(f, benchtool::prepare_circuit(d.name));
    }
    d.pattern_seed = cfg.workload_seed + 0x9e3779b97f4a7c15ULL * (i + 1);
    in.designs.push_back(std::move(d));
  }
  // The server parses the design files; so does the reference.
  in.flow = pinned_options(parse_bench_file(in.designs[0].path),
                           /*diag_threads=*/1);
  Rng pick(cfg.workload_seed);
  for (std::size_t di = 0; di < in.designs.size(); ++di) {
    Design& d = in.designs[di];
    d.ref = std::make_unique<ScanSession>(parse_bench_file(d.path), in.flow);
    d.ref->bind_patterns(make_patterns(d.ref->netlist(), d.pattern_seed));
    const std::vector<Fault>& faults = d.ref->faults();
    const auto add = [&](const Fault& injected) {
      Request q;
      q.design = di;
      q.injected = injected;
      const std::string path = cfg.work_dir + "/" + d.name + "_" +
                               std::to_string(in.requests.size()) + ".slog";
      const SignatureLog log = d.ref->inject_compacted(q.injected);
      if (log.num_failing_windows() == 0) return false;
      save_signature_log_file(path, log);
      q.command = "signature-log " + path;
      q.evidence = load_signature_log_file(path);
      in.requests.push_back(std::move(q));
      return true;
    };
    for (int made = 0, tries = 0; made < kLogsPerDesign; ++tries) {
      if (tries > 1000 * kLogsPerDesign) {
        throw Error("scanbench: too few detected faults");
      }
      if (add(faults[pick.next_below(faults.size())])) ++made;
    }
  }
  for (Request& q : in.requests) {
    Design& d = in.designs[q.design];
    const DiagnosisResult res = d.ref->diagnose(q.evidence);
    q.expected = net::result_json(res, d.ref->netlist(), d.name, q.command,
                                  kPatterns, kTop);
    q.hit = res.rank_of(q.injected) == 1;
  }
}

/// Starts the server, connects the clients and registers each client's
/// design (which builds the server's design contexts).
void start_service(Service& s, const Inputs& in, const RunConfig& cfg) {
  DiagnosisQueue::Options qo;
  qo.max_pending = 16;  // never reached by kClients closed-loop clients
  qo.overload = DiagnosisQueue::OverloadPolicy::Block;
  s.queue = std::make_unique<DiagnosisQueue>(qo, &s.telemetry);
  net::NetServer::Options no;
  no.service.flow = in.flow;
  no.service.top = kTop;
  s.server = std::make_unique<net::NetServer>(*s.queue, &s.telemetry, no);
  for (std::size_t c = 0; c < kClients; ++c) {
    net::DiagClient::Options co;
    co.seed = cfg.run_seed * 131 + c;
    auto client =
        std::make_unique<net::DiagClient>("127.0.0.1", s.server->port(), co);
    const Design& d = in.designs[c];
    expect_ok(client->design(d.path, /*nomap=*/true), "design");
    expect_ok(client->patterns(kPatterns, d.pattern_seed), "patterns");
    s.clients.push_back(std::move(client));
  }
}

struct Sample {
  bool traced;
  double ms;
};

/// One request on connection `c` (q.design == c): the evidence command
/// plus `flush`, timed from the client and spanned into `t` (nullptr =
/// untraced). Returns whether the answer is exactly the expected wire
/// result.
bool serve(Service& s, std::size_t c, const Request& q, Telemetry* t,
           double& ms) {
  net::DiagClient& client = *s.clients[c];
  const int shard = static_cast<int>(c) + 1;
  std::string ack;
  std::vector<std::string> lines;
  const auto t0 = Clock::now();
  {
    TraceSpan root(t, "bench.request", shard);
    {
      TraceSpan span(t, "net.submit", shard);
      ack = client.submit(q.command);
    }
    TraceSpan span(t, "net.flush", shard);
    lines = client.flush();
  }
  ms = ms_between(t0, Clock::now());
  return ack.find("\"queued\"") != std::string::npos && lines.size() == 1 &&
         lines[0] == q.expected;
}

/// Counter deltas between two wire `stats` lines.
struct StatsDelta {
  std::string before, after;
  double counter(const char* key) const {
    const auto get = [key](const std::string& line) {
      return static_cast<double>(net::json_u64_field(line, key).value_or(0));
    };
    return get(after) - get(before);
  }
  /// Mean of a power-of-two latency histogram over the interval, from
  /// bucket midpoints (bucket b holds [2^(b-1), 2^b) us).
  double hist_mean_us(const char* key) const {
    const auto buckets = [key](const std::string& line) {
      std::vector<double> b;
      std::size_t at = line.find(std::string("\"") + key + "\"");
      if (at == std::string::npos) return b;
      at = line.find("\"buckets\":[", at);
      if (at == std::string::npos) return b;
      std::istringstream in(line.substr(at + 11));
      double v = 0;
      char sep = ',';
      while (sep == ',' && in >> v >> sep) b.push_back(v);
      return b;
    };
    const std::vector<double> a = buckets(after), z = buckets(before);
    double n = 0, sum = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double d = a[i] - (i < z.size() ? z[i] : 0.0);
      n += d;
      sum += d * (i == 0 ? 0.0 : 0.75 * static_cast<double>(1ull << i));
    }
    return n > 0 ? sum / n : 0.0;
  }
};

}  // namespace

Report run_diag_service(const RunConfig& cfg) {
  Report r;
  Inputs in;
  build_inputs(in, cfg);

  // Each connection's requests, in list order.
  std::vector<std::vector<const Request*>> mine(kClients);
  for (const Request& q : in.requests) mine[q.design].push_back(&q);

  // Set-up: server start, every connection registering its design, and one
  // warm-up request per connection, which builds the server's lazy
  // per-design state (cones, compaction caches) before timing.
  std::vector<double> setups;
  const auto set_up = [&](std::unique_ptr<Service>& svc) {
    const auto t0 = Clock::now();
    svc = std::make_unique<Service>();
    start_service(*svc, in, cfg);
    for (std::size_t c = 0; c < kClients; ++c) {
      double ms = 0;
      r.failed += serve(*svc, c, *mine[c].front(), nullptr, ms) ? 0 : 1;
      ++r.attempted;
    }
    setups.push_back(seconds_since(t0));
  };
  std::unique_ptr<Service> svc;
  set_up(svc);
  Service& s = *svc;
  std::size_t hits = 0;
  for (const Request& q : in.requests) hits += q.hit ? 1 : 0;
  const double quality_pct =
      100.0 * static_cast<double>(hits) / static_cast<double>(in.requests.size());

  StatsDelta stats;
  stats.before = s.clients[0]->request("stats");

  Telemetry tel;
  tel.trace.set_enabled(true);
  Rng order(cfg.run_seed);
  std::vector<std::size_t> offset(kClients), next(kClients, 0);
  for (std::size_t c = 0; c < kClients; ++c) {
    offset[c] = order.next_below(mine[c].size());
  }
  std::vector<std::vector<Sample>> samples(kClients);
  std::vector<std::uint64_t> done(kClients, 0), bad(kClients, 0);
  std::vector<char> broken(kClients, 0);  // not vector<bool>: one writer per element
  double loaded_s = 0.0;  // wall time under load, set-ups excluded
  for (int seg = 0; seg < kSegments; ++seg) {
    const bool last = seg == kSegments - 1;
    const auto start = Clock::now();
    const auto until = start + std::chrono::duration<double>(
                                   cfg.seconds / kSegments);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const std::size_t n = mine[c].size();
        try {
          // The last segment ends on a complete pass over the list, so
          // every run sees the same work.
          while (!broken[c] &&
                 (Clock::now() < until || (last && next[c] % n != 0))) {
            const std::size_t pass = next[c] / n, j = next[c] % n;
            const Request& q = *mine[c][(offset[c] + j) % n];
            const bool traced = cfg.trace && (pass + j) % 2 == 1;
            double ms = 0;
            const bool ok = serve(s, c, q, traced ? &tel : nullptr, ms);
            samples[c].push_back({traced, ms});
            ++next[c];
            ++done[c];
            bad[c] += ok ? 0 : 1;
          }
        } catch (const std::exception&) {
          ++done[c];
          ++bad[c];  // a broken connection ends this client's loop
          broken[c] = 1;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    loaded_s += seconds_since(start);
    for (int k = 0; k < kSetupsPerGap && !last; ++k) {
      std::unique_ptr<Service> scratch;
      set_up(scratch);
    }
  }
  stats.after = s.clients[0]->request("stats");

  std::vector<double> traced, untraced;
  std::uint64_t ops = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    ops += done[c];
    r.failed += bad[c];
    for (const Sample& x : samples[c]) {
      (x.traced ? traced : untraced).push_back(x.ms);
    }
  }
  r.attempted += ops;
  r.note(std::to_string(in.requests.size()) + " requests per pass (" +
         std::to_string(kLogsPerDesign) + " per design), " +
         std::to_string(kClients) + " closed-loop connections, one per design");

  if (!cfg.trace) {
    add_end_to_end(r, summarize(untraced), static_cast<double>(ops) / loaded_s,
                   setups, quality_pct);
  } else {
    // Client-side spans of the traced requests (analysed before the
    // replay below adds its shard-0 spans to the same recorder).
    const TraceAnalysis a = analyze_trace(tel.trace);
    const auto stage = [&a](const char* k) {
      const auto it = a.stage_ms.find(k);
      return it == a.stage_ms.end() ? 0.0 : it->second;
    };
    const auto self = [&a](const char* k) {
      const auto it = a.self_ms.find(k);
      return it == a.self_ms.end() ? 0.0 : it->second;
    };
    r.add("net.submit_ms", stage("net.submit"), "ms");
    r.add("net.flush_ms", stage("net.flush"), "ms");
    r.add("self.net_ms", self("net"), "ms");
    r.add("trace.unattributed_ms", self("bench"), "ms");
    r.add("trace.overhead_ms", median(traced) - median(untraced), "ms");
    r.add("trace.ops", static_cast<double>(a.ops), "count");

    // Server-side counters, from the wire `stats` deltas.
    const double reqs = static_cast<double>(ops);
    const double submitted = stats.counter("queue.submitted");
    const double batches = stats.counter("queue.batches");
    r.add("net.server_us_per_cmd", stats.hist_mean_us("net.request_us"), "us");
    r.add("net.bytes_in_per_req", stats.counter("net.bytes_in") / reqs, "B");
    r.add("net.bytes_out_per_req", stats.counter("net.bytes_out") / reqs, "B");
    r.add("queue.wait_us_per_log",
          submitted > 0 ? stats.counter("queue.wait_us") / submitted : 0.0,
          "us");
    r.add("queue.logs_per_batch", batches > 0 ? submitted / batches : 0.0,
          "count");
    r.add("queue.rejected", stats.counter("queue.rejected"), "count");
    r.add("queue.poisoned", stats.counter("queue.poisoned"), "count");
    const double builds = static_cast<double>(
        net::json_u64_field(stats.after, "sessions.ctx_builds").value_or(0));
    const double build_us = static_cast<double>(
        net::json_u64_field(stats.after, "sessions.ctx_build_us").value_or(0));
    r.add("core.ctx_build_ms", builds > 0 ? build_us / builds / 1000.0 : 0.0,
          "ms");

    // In-process replay of the same evidence through ScanSession::diagnose
    // (shard 0 of the trace), three passes.
    std::vector<double> inproc_ms;
    double prune = 0, score = 0, cands = 0;
    std::uint64_t fallbacks = 0, logs = 0;
    for (int pass = 0; pass < 3; ++pass) {
      for (const Request& q : in.requests) {
        ScanSession& ref = *in.designs[q.design].ref;
        DiagnosisResult res;
        const auto t0 = Clock::now();
        {
          TraceSpan span(&tel, "compact.diagnose", 0);
          res = ref.diagnose(q.evidence);
        }
        inproc_ms.push_back(ms_between(t0, Clock::now()));
        if (net::result_json(res, ref.netlist(), in.designs[q.design].name,
                             q.command, kPatterns, kTop) != q.expected) {
          ++r.failed;
        }
        ++r.attempted;
        if (pass > 0) continue;
        ++logs;
        prune += static_cast<double>(res.stats.prune_us);
        score += static_cast<double>(res.stats.score_us);
        cands += static_cast<double>(res.num_candidates);
        fallbacks += res.union_fallback ? 1 : 0;
      }
    }
    const double nl = static_cast<double>(logs);
    r.add("compact.diagnose_ms", median(inproc_ms), "ms");
    r.add("diag.prune_us", prune / nl, "us");
    r.add("diag.score_us", score / nl, "us");
    r.add("diag.union_fallbacks", static_cast<double>(fallbacks), "count");
    r.add("diag.candidates_per_log", cands / nl, "count");
    r.add("net.overhead_ms", median(untraced) - median(inproc_ms), "ms");
    write_trace(tel.trace, cfg.work_dir + "/" + cfg.workload + ".trace.json");
    r.note("trace at " + cfg.work_dir + "/" + cfg.workload + ".trace.json");
  }

  // Keep only the trace; the designs and logs are per-run inputs.
  for (const Design& d : in.designs) std::filesystem::remove(d.path);
  for (const Request& q : in.requests) {
    std::filesystem::remove(q.command.substr(q.command.find(' ') + 1));
  }
  return r;
}

}  // namespace scanbench
