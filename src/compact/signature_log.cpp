#include "compact/signature_log.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace scanpower {

std::size_t SignatureLog::num_failing_windows() const {
  std::size_t n = 0;
  for (std::size_t w = 0; w < num_windows(); ++w) {
    if (window_fails(w)) ++n;
  }
  return n;
}

void save_signature_log(std::ostream& out, const SignatureLog& log) {
  SP_CHECK(log.expected.size() == log.observed.size(),
           "save_signature_log: expected/observed window counts differ");
  out << "# scanpower signature log\n";
  if (!log.circuit.empty()) out << "circuit " << log.circuit << "\n";
  out << "patterns " << log.num_patterns << "\n";
  out << strprintf("misr %d %llx %d\n", log.misr.width,
                   static_cast<unsigned long long>(log.misr.resolved_poly()),
                   log.misr.window);
  out << "windows " << log.num_windows() << "\n";
  for (std::size_t w = 0; w < log.num_windows(); ++w) {
    out << strprintf("sig %zu %016llx %016llx\n", w,
                     static_cast<unsigned long long>(log.expected[w]),
                     static_cast<unsigned long long>(log.observed[w]));
  }
}

namespace {

/// Strict non-negative decimal token: digits only, no sign, no trailing
/// characters.
bool parse_dec_token(const std::string& tok, std::uint64_t& out) {
  if (tok.empty() || tok.size() > 19) return false;
  std::uint64_t v = 0;
  for (char c : tok) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

/// Strict hex token (no 0x prefix, at most 16 digits).
bool parse_hex_token(const std::string& tok, std::uint64_t& out) {
  if (tok.empty() || tok.size() > 16) return false;
  std::uint64_t v = 0;
  for (char c : tok) {
    int d = -1;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  out = v;
  return true;
}

}  // namespace

SignatureLog load_signature_log(std::istream& in) {
  SignatureLog log;
  bool have_circuit = false;
  bool have_patterns = false;
  bool have_misr = false;
  bool have_windows = false;
  std::vector<std::uint8_t> seen;
  std::string line;
  std::size_t lineno = 0;
  const auto fail_at = [&lineno](const std::string& what) {
    throw Error(strprintf("signature log line %zu: %s", lineno, what.c_str()));
  };
  while (std::getline(in, line)) {
    ++lineno;
    const std::string trimmed(trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::istringstream ls(trimmed);
    std::string kw;
    ls >> kw;
    if (kw == "circuit") {
      if (have_circuit) fail_at("duplicate circuit record");
      ls >> log.circuit;
      if (log.circuit.empty()) fail_at("expected \"circuit <name>\"");
      have_circuit = true;
    } else if (kw == "patterns") {
      if (have_patterns) fail_at("duplicate patterns record");
      std::string tok;
      ls >> tok;
      std::uint64_t v = 0;
      if (!parse_dec_token(tok, v)) {
        fail_at("bad pattern count \"" + tok + "\"");
      }
      log.num_patterns = static_cast<std::size_t>(v);
      have_patterns = true;
    } else if (kw == "misr") {
      if (have_misr) fail_at("duplicate misr record");
      std::string width_tok, poly_tok, window_tok;
      ls >> width_tok >> poly_tok >> window_tok;
      std::uint64_t width = 0, poly = 0, window = 0;
      if (!parse_dec_token(width_tok, width) || width == 0 || width > 64 ||
          !parse_hex_token(poly_tok, poly) ||
          !parse_dec_token(window_tok, window) || window == 0 ||
          window > 0x7fffffffULL) {
        fail_at("expected \"misr <width> <poly-hex> <window>\"");
      }
      log.misr.width = static_cast<int>(width);
      log.misr.poly = poly;
      log.misr.window = static_cast<int>(window);
      have_misr = true;
    } else if (kw == "windows") {
      if (have_windows) fail_at("duplicate windows record");
      std::string tok;
      ls >> tok;
      std::uint64_t count = 0;
      if (!parse_dec_token(tok, count)) {
        fail_at("bad window count \"" + tok + "\"");
      }
      log.expected.assign(count, 0);
      log.observed.assign(count, 0);
      seen.assign(count, 0);
      have_windows = true;
    } else if (kw == "sig") {
      if (!have_misr) {
        fail_at("\"sig\" before \"misr\" (signature width unknown)");
      }
      if (!have_windows) fail_at("\"sig\" before \"windows\"");
      std::string w_tok, exp_tok, obs_tok;
      ls >> w_tok >> exp_tok >> obs_tok;
      std::uint64_t w = 0, exp = 0, obs = 0;
      if (!parse_dec_token(w_tok, w) || !parse_hex_token(exp_tok, exp) ||
          !parse_hex_token(obs_tok, obs)) {
        fail_at("expected \"sig <window> <expected-hex> <observed-hex>\"");
      }
      if (w >= seen.size()) {
        fail_at(strprintf("window %llu out of range (%zu windows)",
                          static_cast<unsigned long long>(w), seen.size()));
      }
      if (seen[w]) {
        fail_at(strprintf("duplicate window %llu",
                          static_cast<unsigned long long>(w)));
      }
      // A signature wider than the MISR cannot have come from this
      // compactor -- a corrupted or truncated value.
      const std::uint64_t width_mask =
          log.misr.width >= 64 ? ~std::uint64_t{0}
                               : ((std::uint64_t{1} << log.misr.width) - 1);
      if ((exp & ~width_mask) != 0 || (obs & ~width_mask) != 0) {
        fail_at(strprintf("signature exceeds the %d-bit MISR width",
                          log.misr.width));
      }
      seen[w] = 1;
      log.expected[w] = exp;
      log.observed[w] = obs;
    } else {
      fail_at("unknown keyword \"" + kw + "\"");
    }
    std::string rest;
    ls >> rest;
    if (!rest.empty()) fail_at("unexpected trailing token \"" + rest + "\"");
  }
  SP_CHECK(have_misr, "signature log: missing \"misr\" record");
  SP_CHECK(have_windows, "signature log: missing \"windows\" record");
  for (std::size_t w = 0; w < seen.size(); ++w) {
    SP_CHECK(seen[w], strprintf("signature log: truncated (window %zu of %zu "
                                "missing)", w, seen.size()));
  }
  // Validate the MISR configuration (and that the window count matches it).
  (void)Misr(log.misr);
  SP_CHECK(log.misr.num_windows(log.num_patterns) == log.num_windows(),
           "signature log: window count does not match patterns/window");
  return log;
}

void save_signature_log_file(const std::string& path, const SignatureLog& log) {
  std::ofstream f(path);
  SP_CHECK(f.good(), "cannot write " + path);
  save_signature_log(f, log);
}

SignatureLog load_signature_log_file(const std::string& path) {
  std::ifstream f(path);
  SP_CHECK(f.good(), "cannot read " + path);
  return load_signature_log(f);
}

SignatureCapture::SignatureCapture(const Netlist& nl, MisrConfig cfg,
                                   SimBackend backend)
    : nl_(&nl), cfg_(cfg), backend_(backend), capture_(nl, backend),
      compactor_(cfg) {
  cfg_.poly = cfg_.resolved_poly();
}

void SignatureCapture::bind(std::span<const TestPattern> patterns) {
  const auto same = [](const TestPattern& a, const TestPattern& b) {
    return a.pi == b.pi && a.ppi == b.ppi;
  };
  if (bound_valid_ && patterns.size() == bound_.size() &&
      std::equal(patterns.begin(), patterns.end(), bound_.begin(), same)) {
    return;
  }
  bound_.assign(patterns.begin(), patterns.end());
  bound_valid_ = true;
  filled_ = zero_filled_patterns(patterns);
  mask_ = XMaskPlan(*nl_, capture_.points(), patterns, cfg_.window,
                    backend_);
  const ResponseMatrix good = capture_.capture_good(effective_patterns());
  expected_ = compactor_.compact(good, &mask_);
}

namespace {

SignatureLog compose_observed(const std::string& circuit,
                              std::size_t num_patterns, const MisrConfig& cfg,
                              const std::vector<std::uint64_t>& expected,
                              const std::vector<std::uint64_t>& diff_sigs) {
  SignatureLog log;
  log.circuit = circuit;
  log.num_patterns = num_patterns;
  log.misr = cfg;
  log.expected = expected;
  log.observed.resize(expected.size());
  for (std::size_t w = 0; w < expected.size(); ++w) {
    log.observed[w] = expected[w] ^ diff_sigs[w];
  }
  return log;
}

}  // namespace

SignatureLog SignatureCapture::inject(std::span<const TestPattern> patterns,
                                      std::span<const Fault> faults) {
  bind(patterns);
  const FailureLog failures = capture_.inject(effective_patterns(), faults);
  const ResponseMatrix diff = failures.to_matrix(points().size());
  const std::vector<std::uint64_t> diff_sigs = compactor_.compact(diff, &mask_);
  return compose_observed(nl_->name(), patterns.size(), cfg_, expected_,
                          diff_sigs);
}

SignatureLog SignatureCapture::inject(std::span<const TestPattern> patterns,
                                      const Fault& f) {
  bind(patterns);
  const FailureLog failures = capture_.inject(effective_patterns(), f);
  const ResponseMatrix diff = failures.to_matrix(points().size());
  const std::vector<std::uint64_t> diff_sigs = compactor_.compact(diff, &mask_);
  return compose_observed(nl_->name(), patterns.size(), cfg_, expected_,
                          diff_sigs);
}

}  // namespace scanpower
