// Long-running diagnosis server over the async service stack: designs are
// shared DesignContexts parked in a SessionPool, requests flow through a
// DiagnosisQueue (submit -> future), and queued logs coalesce per design
// into batched 64-candidate scoring rounds -- so a burst of K logs against
// one design costs one engine setup plus K scoring passes, and results
// stay bit-identical to sequential diagnose() calls.
//
// Two transports over the same command grammar and the same responses
// (net::CommandSession): every command is answered with one JSON line on
// the channel it came in on -- {"ok":...} acks, {"error":...,"line":N}
// rejects, one result object per pending log on `flush` -- and an
// overloaded queue rejects evidence with
// {"error":"overloaded","retry_after_ms":...}.
//
//   stdin (default)        newline-delimited commands on stdin, every
//                          response on stdout. EOF answers what is
//                          still pending, then exits.
//   --listen <port>        TCP on 127.0.0.1:<port> (0 = let the kernel
//                          pick; the bound port is printed as
//                          "listening <port>" on stdout). stdin stays
//                          live for `quit` (EOF also stops); shutdown
//                          stops accepting, drains pending work,
//                          answers it, then closes.
//
// Line protocol (# starts a comment):
//
//   design <path> [nomap]      load a .bench / structural .v design and
//                              make it current (contexts stay warm in the
//                              pool across switches; LRU past capacity)
//   patterns <n> [seed]        bind n random patterns to the current
//                              design (required before evidence)
//   log <path>                 submit a failure-log file for diagnosis
//   signature-log <path>       submit a MISR signature-log file
//   inject <fault>             synthesize + submit "net/sa0" style fault
//   inject-index <n>           ... the n-th collapsed fault
//   flush                      wait for every pending result and print one
//                              compact JSON object per line (input
//                              order), then {"ok":"flush","results":N}
//   stats                      print the server telemetry as one JSON
//                              object (the sessions.* / queue.* / net.*
//                              counters with the pool, queue-depth and
//                              connection gauges)
//   quit                       flush and exit
//
// Startup flags:
//
//   diag_server [--listen port] [--max-connections n]
//               [--max-pending n] [--overload block|reject]
//               [--pool-capacity n] [--max-batch n] [--top n]
//               [--threads n]
//               [--backend auto|scalar|avx2|avx512]
//               [--log-level debug|info|warn|error|off]
//
//   --max-pending bounds queued+in-flight jobs (0 = unbounded);
//   --overload picks what submit does at the bound: "block" parks the
//   submitter, "reject" answers overloaded so clients back off
//   (net::DiagClient retries with jittered exponential backoff).
//
// Example session:
//
//   design bench/iscas89/s9234.bench
//   patterns 192 7
//   inject G100/sa1
//   log chip42.flog
//   flush
//   quit

#include <cstdio>
#include <iostream>
#include <string>

#include "cli_common.hpp"
#include "core/work_queue.hpp"
#include "net/server.hpp"
#include "util/log.hpp"

using namespace scanpower;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--listen port] [--max-connections n]\n"
      "          [--max-pending n] [--overload block|reject]\n"
      "          [--pool-capacity n] [--max-batch n] [--top n]\n"
      "          [--threads n]\n"
      "          [--backend auto|scalar|avx2|avx512]\n"
      "          [--log-level debug|info|warn|error|off]\n"
      "\n"
      "  Without --listen, reads newline-delimited commands on stdin;\n"
      "  with --listen, serves the same grammar over TCP on\n"
      "  127.0.0.1:<port> (0 = ephemeral; prints \"listening <port>\").\n"
      "  Either way every command is answered with one JSON line.\n"
      "  Commands:\n"
      "    design <path> [nomap]   load a design, make it current\n"
      "    patterns <n> [seed]     bind n random patterns to it\n"
      "    log <file>              submit a failure log\n"
      "    signature-log <file>    submit a MISR signature log\n"
      "    inject <fault>          synthesize + submit net/sa0-style fault\n"
      "    inject-index <n>        ... the n-th collapsed fault\n"
      "    flush                   print pending results (one JSON/line)\n"
      "    stats                   print server telemetry (one JSON line)\n"
      "    quit                    flush and exit\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool listen = false;
  int listen_port = 0;
  std::size_t max_connections = 64;
  std::size_t pool_capacity = SessionPool::kDefaultCapacity;
  std::size_t max_batch = 64;
  std::size_t max_pending = 0;
  auto overload = DiagnosisQueue::OverloadPolicy::Block;
  std::size_t top = 5;
  DiagnosisOptions dopts;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (cli::value_flag(argc, argv, i, "--listen", listen_port)) {
      listen = true;
      if (listen_port < 0 || listen_port > 65535) {
        std::fprintf(stderr, "error: --listen port must be 0..65535\n");
        return 2;
      }
    } else if (cli::value_flag(argc, argv, i, "--max-connections",
                               max_connections)) {
    } else if (cli::value_flag(argc, argv, i, "--max-pending", max_pending)) {
    } else if (cli::value_flag(argc, argv, i, "--overload", v)) {
      if (std::strcmp(v, "block") == 0) {
        overload = DiagnosisQueue::OverloadPolicy::Block;
      } else if (std::strcmp(v, "reject") == 0) {
        overload = DiagnosisQueue::OverloadPolicy::Reject;
      } else {
        std::fprintf(stderr,
                     "error: --overload must be block or reject (got "
                     "\"%s\")\n",
                     v);
        return 2;
      }
    } else if (cli::value_flag(argc, argv, i, "--pool-capacity",
                               pool_capacity)) {
    } else if (cli::value_flag(argc, argv, i, "--max-batch", max_batch)) {
    } else if (cli::value_flag(argc, argv, i, "--top", top)) {
    } else if (cli::value_flag(argc, argv, i, "--threads",
                               dopts.num_threads)) {
    } else if (cli::backend_flag(argc, argv, i, "--backend", dopts.backend)) {
    } else if (cli::value_flag(argc, argv, i, "--log-level", v)) {
      set_log_level(cli::parse_log_level(v));
    } else {
      return usage(argv[0]);
    }
  }

  Telemetry telemetry;
  DiagnosisQueue::Options qopts;
  qopts.max_batch = max_batch;
  qopts.pool_capacity = pool_capacity;
  qopts.max_pending = max_pending;
  qopts.overload = overload;
  DiagnosisQueue queue(qopts, &telemetry);

  net::ServiceOptions sopts;
  sopts.top = top;
  sopts.flow.diag = dopts;
  sopts.flow.tpg.fault_sim.num_threads = dopts.num_threads;
  sopts.flow.tpg.fault_sim.backend = dopts.backend;

  if (listen) {
    net::NetServer::Options nopts;
    nopts.port = static_cast<std::uint16_t>(listen_port);
    nopts.max_connections = max_connections;
    nopts.service = sopts;
    net::NetServer server(queue, &telemetry, nopts);
    // The bound port, for wrappers spawning us with --listen 0.
    std::printf("listening %u\n", static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    // stdin stays the control channel: `quit` (or EOF) stops the server.
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line == "quit") break;
      if (!line.empty() && line[0] != '#') {
        std::fprintf(stderr,
                     "error: TCP mode takes only 'quit' on stdin\n");
      }
    }
    server.shutdown();  // stop accepting, drain + answer pending, close
    queue.drain();
    return 0;
  }

  net::CommandSession session(queue, &telemetry, sopts,
                              /*out=*/[](std::string_view s) {
                                std::cout << s << "\n";
                                std::cout.flush();
                              });
  std::string line;
  std::uint64_t line_no = 0;
  bool open = true;
  while (open && std::getline(std::cin, line)) {
    open = session.handle_line(line, ++line_no);
  }
  // EOF without quit: answer what is pending, like a TCP disconnect.
  if (open && session.pending() > 0) session.flush();
  return 0;
}
