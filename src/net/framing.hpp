#pragma once
// Newline-delimited wire framing for the diagnosis service, shared by
// the stdin and TCP front ends (and by the client, which reads the same
// frames back).
//
// Requests are the diag_server command grammar, one command per line;
// responses are compact JSON, one object per line. The reader is
// byte-stream driven: feed() takes whatever the transport produced
// (split or coalesced TCP segments, a whole stdin line, garbage) and
// next() hands back complete lines in order, so partial reads and
// packet boundaries never reach the protocol layer. Hardening:
//
//   - bounded line buffer: a line longer than max_line raises
//     LineTooLongError once (with the 1-based line number, matching the
//     PR 6 loader style), and the rest of the oversized line is
//     discarded up to its newline -- the stream stays usable;
//   - abrupt disconnects: a trailing unterminated fragment at EOF is
//     reported (take_partial) but never parsed as a command;
//   - CR/LF tolerance: a trailing '\r' is stripped, so telnet-style
//     clients work.
//
// Response serialization lives here too (write_result_fields /
// result_json / error_json / overloaded_json and the JSON field
// extractors the client uses), so a byte of diagnosis output is
// produced by exactly one function no matter which front end carried
// the request -- that is what makes the "TCP responses byte-identical
// to in-process diagnose()" acceptance testable at the string level.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "util/assert.hpp"

namespace scanpower {
struct DiagnosisResult;
class JsonWriter;
class Netlist;
}  // namespace scanpower

namespace scanpower::net {

/// A request line exceeded the reader's bound. Carries the 1-based line
/// number and the limit; the offending line is discarded, the stream
/// survives.
class LineTooLongError : public Error {
 public:
  LineTooLongError(std::uint64_t line_no, std::size_t limit)
      : Error("request line " + std::to_string(line_no) +
              ": line exceeds " + std::to_string(limit) + " bytes"),
        line_no_(line_no),
        limit_(limit) {}
  std::uint64_t line_no() const { return line_no_; }
  std::size_t limit() const { return limit_; }

 private:
  std::uint64_t line_no_;
  std::size_t limit_;
};

/// Incremental newline splitter with a bounded buffer.
class LineReader {
 public:
  static constexpr std::size_t kDefaultMaxLine = 64 * 1024;

  explicit LineReader(std::size_t max_line = kDefaultMaxLine)
      : max_line_(max_line) {
    SP_CHECK(max_line_ >= 1, "LineReader: max_line must be >= 1");
  }

  /// Appends raw transport bytes. Never throws; oversized detection is
  /// reported by next() so errors come out in stream order.
  void feed(std::string_view bytes);

  /// The next complete line (terminator stripped), or nullopt when more
  /// bytes are needed. Throws LineTooLongError exactly once per
  /// oversized line, after which the stream continues at the following
  /// line.
  std::optional<std::string> next();

  /// 1-based number of the line next() will produce next -- the number
  /// error responses should carry.
  std::uint64_t line_no() const { return lines_out_ + 1; }

  /// The unterminated trailing fragment (abrupt disconnect); empty when
  /// the stream ended cleanly. Clears the buffer.
  std::string take_partial();

 private:
  std::size_t max_line_;
  /// Completed lines in arrival order; nullopt marks an oversized line
  /// (next() converts it into the typed throw at the right position).
  std::deque<std::optional<std::string>> ready_;
  std::string partial_;          ///< bytes of the still-unterminated line
  std::uint64_t lines_out_ = 0;  ///< lines (and rejects) handed out
  bool discarding_ = false;      ///< inside an oversized line's tail
};

// ---------- response serialization ------------------------------------------

/// One compact single-line JSON object whose fields `body` writes, no
/// trailing newline: the shape of every response frame.
std::string json_object_line(const std::function<void(JsonWriter&)>& body);

/// The one serializer of a DiagnosisResult, into the object `j` has
/// open: metadata, counts (window counts only for compacted evidence),
/// the top-`top` ranked candidates with their rank, union_fallback and
/// the suspect sets. Never timings, so results stay byte-identical to
/// in-process diagnose().
void write_result_fields(JsonWriter& j, const DiagnosisResult& res,
                         const Netlist& nl, const std::string& circuit,
                         const std::string& source, std::size_t num_patterns,
                         std::size_t top);

/// write_result_fields() as a compact single-line object, no trailing
/// newline: the wire result every front end sends.
std::string result_json(const DiagnosisResult& res, const Netlist& nl,
                        const std::string& circuit, const std::string& source,
                        std::size_t num_patterns, std::size_t top);

/// {"error":<msg>} plus the offending 1-based request line when nonzero.
std::string error_json(std::string_view msg, std::uint64_t line_no = 0);

/// The admission-control reject frame:
/// {"error":"overloaded","retry_after_ms":N}.
std::string overloaded_json(std::uint64_t retry_after_ms);

// ---------- minimal JSON field extraction -----------------------------------
// The client only inspects flat string/integer fields of single-line
// response objects; a full parser would be dead weight next to the
// writer-only util/json.hpp.

/// The string value of `"key":"..."` (unescaped for \" \\ \/ \n \t \r),
/// or nullopt when absent.
std::optional<std::string> json_string_field(std::string_view line,
                                             std::string_view key);
/// The unsigned integer value of `"key":N`, or nullopt when absent.
std::optional<std::uint64_t> json_u64_field(std::string_view line,
                                            std::string_view key);

}  // namespace scanpower::net
