#pragma once
// The diagnosis service's command layer and TCP server.
//
// CommandSession is the one implementation of the diag_server line
// grammar (design / patterns / log / signature-log / inject /
// inject-index / flush / stats / quit), shared verbatim by the stdin
// front end and every TCP connection -- both route the same commands
// into the same shared DiagnosisQueue and serialize results through the
// same framing.hpp writers, which is what keeps responses byte-identical
// across front ends and to in-process diagnose().
//
// One response mode, whatever carries the commands: every command is
// answered with exactly one JSON line ({"ok":...} acks, {"error":...,
// "line":N} rejects); `flush` emits one result object per pending log
// then an {"ok":"flush","results":N} terminator; `stats` is a single
// JSON object. An overloaded queue (Reject policy) answers
// {"error":"overloaded","retry_after_ms":...}.
//
// NetServer is the transport in front of it: an accept loop (ephemeral-
// capable port), one reader thread per connection feeding a bounded
// LineReader, a connection cap (excess connections are answered with an
// error line and closed), and graceful shutdown -- stop accepting,
// half-close every connection so its reader drains buffered commands
// and flushes pending futures (the queue keeps dispatching throughout),
// then join. No hung clients, no broken promises.
//
// Telemetry: net.{accepted,conn_rejected,requests,bytes_in,bytes_out,
// framing_errors}, the net.active_connections gauge and the
// net.request_us handling-latency histogram, next to the queue.* family
// the DiagnosisQueue already maintains.

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/work_queue.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"

namespace scanpower::net {

/// Knobs shared by every front end of one service process.
struct ServiceOptions {
  /// Engine options for every design opened through the service.
  FlowOptions flow;
  /// Ranked candidates serialized per result.
  std::size_t top = 5;
};

/// One client's view of the service: current design, registered designs
/// (front sessions for fault parsing / evidence injection) and the FIFO
/// of submitted-but-unflushed results. Single-threaded; owned by its
/// front end (the stdin loop or one connection's reader thread).
class CommandSession {
 public:
  using Sink = std::function<void(std::string_view line)>;

  /// `out` receives response lines (no trailing newline), errors
  /// included.
  CommandSession(DiagnosisQueue& queue, Telemetry* telemetry,
                 ServiceOptions opts, Sink out);
  ~CommandSession();

  CommandSession(const CommandSession&) = delete;
  CommandSession& operator=(const CommandSession&) = delete;

  /// Handles one command line (1-based `line_no` feeds error frames).
  /// Returns false when the command was `quit` (pending results are
  /// flushed first). Never throws on bad input -- errors are responses.
  bool handle_line(const std::string& line, std::uint64_t line_no);

  /// Emits every pending result, in submission order.
  void flush();

  /// Emits an {"error":...} frame -- also the entry point for
  /// transport-level rejects like LineTooLongError.
  void error(std::string_view msg, std::uint64_t line_no = 0);

  std::size_t pending() const { return pending_.size(); }

 private:
  struct Design {
    DiagnosisQueue::DesignKey key = 0;
    std::shared_ptr<const DesignContext> ctx;
    std::unique_ptr<ScanSession> front;
    std::size_t num_patterns = 0;
  };
  struct Pending {
    std::string source;
    std::size_t num_patterns = 0;
    std::shared_ptr<const DesignContext> ctx;  ///< keeps names resolvable
    std::future<DiagnosisResult> result;
  };

  void ok(std::string_view what,
          const std::function<void(JsonWriter&)>& extra = {});
  void cmd_design(std::istream& in, std::uint64_t line_no);
  void cmd_patterns(std::istream& in, std::uint64_t line_no);
  void cmd_evidence(const std::string& cmd, std::istream& in,
                    std::uint64_t line_no);
  void cmd_stats();
  void write_pending(Pending& p);

  DiagnosisQueue& queue_;
  Telemetry* telemetry_;
  ServiceOptions opts_;
  Sink out_;
  std::map<std::string, Design> designs_;  ///< by netlist name
  Design* current_ = nullptr;
  std::unique_ptr<Netlist> loaded_;  ///< awaiting its `patterns` command
  std::vector<Pending> pending_;
};

/// TCP transport: accept loop + per-connection readers over one shared
/// DiagnosisQueue.
class NetServer {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral; see port()
    std::size_t max_connections = 64;
    std::size_t max_line = LineReader::kDefaultMaxLine;
    /// Write deadline per response line, so one dead client cannot hang
    /// its reader (and with it, shutdown) forever. <= 0 = no deadline.
    int write_timeout_ms = 30'000;
    ServiceOptions service;
  };

  /// Binds and starts accepting immediately. `queue` and `telemetry`
  /// are borrowed and must outlive the server.
  NetServer(DiagnosisQueue& queue, Telemetry* telemetry, Options opts);
  ~NetServer();  ///< shutdown()

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (the kernel's pick when Options::port was 0).
  std::uint16_t port() const { return listener_.port(); }

  /// Graceful stop: stop accepting, half-close every connection so its
  /// reader finishes buffered commands and flushes every pending future
  /// (the queue keeps dispatching), join the readers. Idempotent.
  void shutdown();

  std::size_t active_connections() const;

 private:
  struct Conn {
    Connection conn;
    std::thread reader;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve(Conn& c);
  void reap_finished();  ///< callers hold conns_mu_
  void set_conn_gauge(std::size_t n);

  DiagnosisQueue& queue_;
  Telemetry* telemetry_;
  const Options opts_;
  Listener listener_;

  mutable std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
  /// Live connection count, kept outside conns_mu_ so a reader thread can
  /// update it while shutdown() holds the lock joining readers.
  std::atomic<std::size_t> active_{0};
  std::atomic<bool> stop_{false};
  bool shut_down_ = false;  ///< shutdown() ran (guarded by conns_mu_)
  std::thread acceptor_;
};

}  // namespace scanpower::net
