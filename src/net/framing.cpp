#include "net/framing.hpp"

#include <sstream>
#include <utility>

#include "diag/diagnose.hpp"
#include "util/json.hpp"

namespace scanpower::net {

// ---------- LineReader -------------------------------------------------------

void LineReader::feed(std::string_view bytes) {
  for (char c : bytes) {
    if (discarding_) {
      if (c == '\n') discarding_ = false;
      continue;
    }
    if (c == '\n') {
      ready_.push_back(std::move(partial_));
      partial_.clear();
      continue;
    }
    partial_.push_back(c);
    if (partial_.size() > max_line_) {
      // The line is already over budget: queue the typed reject in
      // stream order and skip the rest of the line's bytes.
      ready_.push_back(std::nullopt);
      partial_.clear();
      discarding_ = true;
    }
  }
}

std::optional<std::string> LineReader::next() {
  if (ready_.empty()) return std::nullopt;
  std::optional<std::string> line = std::move(ready_.front());
  ready_.pop_front();
  ++lines_out_;
  if (!line.has_value()) throw LineTooLongError(lines_out_, max_line_);
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return line;
}

std::string LineReader::take_partial() {
  std::string out = std::move(partial_);
  partial_.clear();
  return out;
}

// ---------- response serialization ------------------------------------------

std::string json_object_line(const std::function<void(JsonWriter&)>& body) {
  std::ostringstream os;
  JsonWriter j(os, /*indent=*/0);
  j.begin_object();
  body(j);
  j.end_object();
  return os.str();
}

void write_result_fields(JsonWriter& j, const DiagnosisResult& res,
                         const Netlist& nl, const std::string& circuit,
                         const std::string& source, std::size_t num_patterns,
                         std::size_t top) {
  const auto u64 = [](std::size_t v) { return static_cast<std::uint64_t>(v); };
  const auto score = [&](const CandidateScore& sc) {
    j.field("fault", sc.fault.to_string(nl));
    j.field("tfsf", sc.tfsf);
    j.field("tfsp", sc.tfsp);
    j.field("tpsf", sc.tpsf);
  };
  j.field("circuit", circuit);
  j.field("source", source);
  j.field("num_patterns", u64(num_patterns));
  j.field("num_faults", u64(res.num_faults));
  j.field("num_candidates", u64(res.num_candidates));
  j.field("num_dropped", u64(res.num_dropped));
  j.field("num_failures", u64(res.num_failures));
  j.field("num_failing_patterns", u64(res.num_failing_patterns));
  j.field("num_failing_points", u64(res.num_failing_points));
  if (res.num_windows != 0) {  // compacted (signature) evidence
    j.field("num_windows", u64(res.num_windows));
    j.field("num_failing_windows", u64(res.num_failing_windows));
    j.field("num_masked", u64(res.num_masked));
  }
  j.begin_array("ranked");
  for (std::size_t i = 0; i < res.ranked.size() && i < top; ++i) {
    const CandidateScore& sc = res.ranked[i];
    j.begin_object();
    j.field("rank", u64(res.rank_of(sc.fault)));
    score(sc);
    j.field("exact", sc.exact());
    j.end_object();
  }
  j.end_array();
  j.field("union_fallback", res.union_fallback);
  j.begin_array("suspect_sets");
  for (const SuspectSet& set : res.multiplets) {
    j.begin_object();
    j.field("covered", u64(set.covered));
    j.field("uncovered", u64(set.uncovered));
    j.begin_array("faults");
    for (const CandidateScore& sc : set.members) {
      j.begin_object();
      score(sc);
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }
  j.end_array();
}

std::string result_json(const DiagnosisResult& res, const Netlist& nl,
                        const std::string& circuit, const std::string& source,
                        std::size_t num_patterns, std::size_t top) {
  return json_object_line([&](JsonWriter& j) {
    write_result_fields(j, res, nl, circuit, source, num_patterns, top);
  });
}

std::string error_json(std::string_view msg, std::uint64_t line_no) {
  return json_object_line([&](JsonWriter& j) {
    j.field("error", msg);
    if (line_no != 0) j.field("line", line_no);
  });
}

std::string overloaded_json(std::uint64_t retry_after_ms) {
  return json_object_line([&](JsonWriter& j) {
    j.field("error", "overloaded");
    j.field("retry_after_ms", retry_after_ms);
  });
}

// ---------- minimal JSON field extraction -----------------------------------

namespace {

/// Position right after `"key":`, or npos.
std::size_t find_value(std::string_view line, std::string_view key) {
  std::string needle;
  needle.reserve(key.size() + 3);
  needle.append(1, '"').append(key).append("\":");
  const std::size_t at = line.find(needle);
  return at == std::string_view::npos ? at : at + needle.size();
}

}  // namespace

std::optional<std::string> json_string_field(std::string_view line,
                                             std::string_view key) {
  std::size_t i = find_value(line, key);
  if (i == std::string_view::npos || i >= line.size() || line[i] != '"') {
    return std::nullopt;
  }
  ++i;
  std::string out;
  while (i < line.size() && line[i] != '"') {
    char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      const char e = line[++i];
      c = e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;
    }
    out.push_back(c);
    ++i;
  }
  if (i >= line.size()) return std::nullopt;  // unterminated string
  return out;
}

std::optional<std::uint64_t> json_u64_field(std::string_view line,
                                            std::string_view key) {
  std::size_t i = find_value(line, key);
  if (i == std::string_view::npos || i >= line.size() ||
      line[i] < '0' || line[i] > '9') {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
    ++i;
  }
  return v;
}

}  // namespace scanpower::net
