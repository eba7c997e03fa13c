#pragma once
// DiagClient: a small blocking client for the TCP diagnosis service.
//
// Speaks the CommandSession grammar and its one response mode: one
// command line out, one JSON response line back (flush is the
// exception: K result lines then the {"ok":"flush","results":K}
// terminator). The client
// adds the two behaviors a production tester front end needs and the
// raw protocol does not give:
//
//   - timeouts on connect and on every request/response round trip;
//   - jittered exponential backoff on {"error":"overloaded",...}: the
//     command is re-sent after max(server retry_after_ms, base) doubled
//     per attempt (capped), jittered uniformly over [1/2, 1] of the
//     delay by a seeded Rng so colliding clients deterministically
//     de-synchronize, until Options::max_retries is exhausted (then
//     OverloadError propagates to the caller).
//
// Any non-overload {"error":...} response is returned to the caller as
// the response line, NOT thrown -- the server uses error frames for
// per-command rejects (bad path, unknown command) that a driver may
// want to inspect, and tests assert on them directly.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/framing.hpp"
#include "net/socket.hpp"
#include "util/rng.hpp"

namespace scanpower::net {

class DiagClient {
 public:
  struct Options {
    int connect_timeout_ms = 5'000;
    /// Per read/write deadline inside one request (a diagnosis can take
    /// a while once flush blocks on the dispatcher).
    int io_timeout_ms = 60'000;
    /// Overload retries before giving up (OverloadError propagates).
    int max_retries = 12;
    std::uint64_t backoff_base_ms = 5;
    std::uint64_t backoff_max_ms = 1'000;
    /// Jitter seed; give concurrent clients distinct seeds.
    std::uint64_t seed = 0x5eed;
    std::size_t max_line = LineReader::kDefaultMaxLine;
  };

  /// Connects immediately; throws TimeoutError / NetError on failure.
  DiagClient(const std::string& host, std::uint16_t port, Options opts);
  DiagClient(const std::string& host, std::uint16_t port);

  /// Sends one command line and returns its single response line,
  /// retrying with backoff while the server answers overloaded. Counts
  /// a successfully queued evidence command toward queued().
  std::string request(std::string_view command);

  // Typed conveniences over request().
  std::string design(const std::string& path, bool nomap = false);
  std::string patterns(std::size_t n, std::uint64_t seed);
  /// `log` / `signature-log` / `inject` / `inject-index` lines.
  std::string submit(const std::string& command) { return request(command); }

  /// Flushes: returns the result lines (one JSON object per submitted
  /// log, in submission order); the flush terminator is consumed and
  /// validated, not returned.
  std::vector<std::string> flush();

  /// quit: flushes server-side, returns the pending result lines, and
  /// half-closes the connection.
  std::vector<std::string> quit();

  /// Evidence commands acknowledged since the last flush().
  std::size_t queued() const { return queued_; }

  /// Overload rejects absorbed by backoff so far (observability for
  /// tests and the saturation bench).
  std::uint64_t overload_retries() const { return retries_; }

 private:
  std::string read_line();
  void send_line(std::string_view line);
  std::string roundtrip(std::string_view command);

  Options opts_;
  Connection conn_;
  LineReader reader_;
  Rng rng_;
  std::size_t queued_ = 0;
  std::uint64_t retries_ = 0;
};

}  // namespace scanpower::net
