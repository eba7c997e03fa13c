// End-to-end socket smoke for the TCP diagnosis service: spawns a real
// `diag_server --listen 0` child process, reads the ephemeral port it
// prints, drives it with net::DiagClient over a benchgen profile, and
// byte-compares every wire result against the in-process
// ScanSession::diagnose() reference -- the full acceptance loop
// (process spawn -> TCP -> queue -> engine -> JSON -> client parse) in
// one ctest. A second leg pipes the same commands to `diag_server` on
// stdin and requires one JSON line per command, with results
// byte-identical to the TCP leg's. Usage:
//
//   net_smoke <path-to-diag_server>
//
// Exits 0 on success; prints the first mismatch and exits 1 otherwise.

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "core/session.hpp"
#include "net/client.hpp"
#include "net/framing.hpp"
#include "netlist/bench_io.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

using namespace scanpower;

namespace {

struct Server {
  pid_t pid = -1;
  int to_child = -1;    ///< child's stdin (write "quit\n" to stop it)
  int from_child = -1;  ///< child's stdout ("listening <port>")
};

Server spawn_server(const char* binary) {
  int in_pipe[2], out_pipe[2];
  SP_CHECK(pipe(in_pipe) == 0 && pipe(out_pipe) == 0, "pipe failed");
  const pid_t pid = fork();
  SP_CHECK(pid >= 0, "fork failed");
  if (pid == 0) {
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    close(in_pipe[0]);
    close(in_pipe[1]);
    close(out_pipe[0]);
    close(out_pipe[1]);
    execl(binary, binary, "--listen", "0", "--max-pending", "8",
          "--overload", "reject", static_cast<char*>(nullptr));
    std::perror("execl diag_server");
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  return Server{pid, in_pipe[1], out_pipe[0]};
}

std::uint16_t read_port(int fd) {
  // First line of the child's stdout: "listening <port>".
  std::string line;
  char c;
  while (read(fd, &c, 1) == 1 && c != '\n') line.push_back(c);
  SP_CHECK(line.rfind("listening ", 0) == 0,
           "expected \"listening <port>\", got: " + line);
  const int port = std::atoi(line.c_str() + std::strlen("listening "));
  SP_CHECK(port > 0 && port <= 65535, "bad port in: " + line);
  return static_cast<std::uint16_t>(port);
}

int fail(const std::string& what, const std::string& got,
         const std::string& want) {
  std::fprintf(stderr, "FAIL %s\n  got:  %s\n  want: %s\n", what.c_str(),
               got.c_str(), want.c_str());
  return 1;
}

/// A `stats` reply names `key` -- or, in a -DSCANPOWER_TELEMETRY=OFF
/// build, has empty sections.
int check_stats(const std::string& resp, const std::string& key) {
  if constexpr (!kTelemetryEnabled) {
    const char* empty =
        R"({"ok":"stats","counters":{},"gauges":{},"histograms":{}})";
    return resp == empty ? 0 : fail("stats", resp, empty);
  }
  return resp.find("\"" + key + "\":") != std::string::npos
             ? 0
             : fail("stats", resp, "contains \"" + key + "\":");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <path-to-diag_server>\n", argv[0]);
    return 2;
  }

  // The benchgen profile, written where the server can load it. The
  // netlist name is the file stem, so the file must be named s344.bench.
  const std::string dir =
      strprintf("/tmp/net_smoke_%d", static_cast<int>(getpid()));
  SP_CHECK(mkdir(dir.c_str(), 0755) == 0, "mkdir " + dir + " failed");
  const std::string bench_path = dir + "/s344.bench";
  {
    std::ofstream f(bench_path);
    write_bench(f, map_to_nand_nor_inv(make_circuit("s344")));
  }
  const Netlist nl = parse_bench_file(bench_path);
  const auto faults = collapse_faults(nl);
  constexpr std::size_t kPatterns = 64;
  constexpr std::uint64_t kSeed = 9;
  const std::size_t picks[] = {3, 41 % faults.size(), 97 % faults.size()};

  // In-process reference through the shared serializer.
  FlowOptions opts;
  Rng rng(kSeed);
  std::vector<TestPattern> pats;
  for (std::size_t i = 0; i < kPatterns; ++i) {
    pats.push_back(random_pattern(nl, rng));
  }
  ScanSession ref(nl, opts);
  ref.bind_patterns(pats);
  std::vector<std::string> expected;
  for (const std::size_t p : picks) {
    expected.push_back(net::result_json(
        ref.diagnose(ref.inject(faults[p])), nl, nl.name(),
        "inject-index " + std::to_string(p), kPatterns, 5));
  }

  const Server srv = spawn_server(argv[1]);
  int rc = 0;
  std::vector<std::string> results;
  try {
    const std::uint16_t port = read_port(srv.from_child);
    net::DiagClient client("127.0.0.1", port);

    std::string resp = client.design(bench_path);
    if (net::json_string_field(resp, "circuit") !=
        std::optional<std::string>("s344")) {
      rc |= fail("design ack", resp, "{\"ok\":\"design\",\"circuit\":\"s344\"}");
    }
    resp = client.patterns(kPatterns, kSeed);
    if (net::json_u64_field(resp, "num_patterns") !=
        std::optional<std::uint64_t>(kPatterns)) {
      rc |= fail("patterns ack", resp, "num_patterns:64");
    }
    for (const std::size_t p : picks) {
      client.submit("inject-index " + std::to_string(p));
    }
    results = client.flush();
    if (results.size() != expected.size()) {
      rc |= fail("flush count", std::to_string(results.size()),
                 std::to_string(expected.size()));
    }
    for (std::size_t i = 0; i < results.size() && i < expected.size(); ++i) {
      if (results[i] != expected[i]) {
        rc |= fail("result " + std::to_string(i) + " byte identity",
                   results[i], expected[i]);
      }
    }
    resp = client.request("stats");
    rc |= check_stats(resp, "net.requests") |
          check_stats(resp, "queue.submitted");
    client.quit();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL exception: %s\n", e.what());
    rc = 1;
  }

  // Stop the server via its stdin control channel and reap it.
  (void)!write(srv.to_child, "quit\n", 5);
  close(srv.to_child);
  close(srv.from_child);
  int status = 0;
  if (waitpid(srv.pid, &status, 0) != srv.pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "FAIL server exit status %d\n", status);
    rc = 1;
  }

  // The stdin leg: the same commands, each answered with one JSON line
  // (quit: its empty flush terminator, then its ack). The stats line
  // ("stats" in `want`) is checked on its own.
  std::string script = "design " + bench_path + "\n" +
                       strprintf("patterns %zu %llu\n", kPatterns,
                                 static_cast<unsigned long long>(kSeed));
  std::vector<std::string> want = {
      R"({"ok":"design","circuit":"s344"})",
      strprintf(R"({"ok":"patterns","circuit":"s344","num_patterns":%zu})",
                kPatterns)};
  for (std::size_t i = 0; i < std::size(picks); ++i) {
    script += "inject-index " + std::to_string(picks[i]) + "\n";
    want.push_back(strprintf(R"({"ok":"queued","pending":%zu})", i + 1));
  }
  script += "flush\nstats\nquit\n";
  want.insert(want.end(), results.begin(), results.end());
  want.insert(want.end(),
              {R"({"ok":"flush","results":3})", "stats",
               R"({"ok":"flush","results":0})", R"({"ok":"quit"})"});
  const std::string script_path = dir + "/script";
  std::ofstream(script_path) << script;
  FILE* pipe = popen(
      ("'" + std::string(argv[1]) + "' < '" + script_path + "'").c_str(), "r");
  SP_CHECK(pipe != nullptr, "popen diag_server failed");
  std::vector<std::string> got;
  char* buf = nullptr;
  std::size_t cap = 0;
  for (ssize_t n; (n = getline(&buf, &cap, pipe)) > 0;) {
    got.emplace_back(buf, static_cast<std::size_t>(n) - 1);  // drop '\n'
  }
  std::free(buf);
  if (pclose(pipe) != 0) rc |= fail("stdin server exit", "nonzero", "0");
  if (got.size() != want.size()) {
    rc |= fail("stdin line count", std::to_string(got.size()),
               std::to_string(want.size()));
  }
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    if (want[i] == "stats") {
      rc |= check_stats(got[i], "queue.submitted");
    } else if (got[i] != want[i]) {
      rc |= fail("stdin line " + std::to_string(i + 1), got[i], want[i]);
    }
  }

  std::remove(script_path.c_str());
  std::remove(bench_path.c_str());
  rmdir(dir.c_str());
  if (rc == 0) {
    std::printf("net_smoke: PASS (3 results byte-identical over TCP and "
                "stdin)\n");
  }
  return rc;
}
