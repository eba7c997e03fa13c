#include "diag/response.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace scanpower {

ObservationPoints::ObservationPoints(const Netlist& nl) {
  SP_CHECK(nl.finalized(), "ObservationPoints requires a finalized netlist");
  num_pos_ = nl.outputs().size();
  source_.reserve(num_pos_ + nl.dffs().size());
  for (GateId po : nl.outputs()) source_.push_back(po);
  dff_op_.assign(nl.num_gates(), kNoPoint);
  cells_ = nl.dffs();
  for (GateId dff : cells_) {
    dff_op_[dff] = static_cast<std::uint32_t>(source_.size());
    source_.push_back(nl.fanins(dff)[0]);
  }

  // CSR gate -> observation points reading its net.
  std::vector<std::uint32_t> counts(nl.num_gates() + 1, 0);
  for (GateId g : source_) counts[g + 1]++;
  op_offsets_.assign(nl.num_gates() + 1, 0);
  for (std::size_t i = 1; i < op_offsets_.size(); ++i) {
    op_offsets_[i] = op_offsets_[i - 1] + counts[i];
  }
  op_data_.resize(source_.size());
  std::vector<std::uint32_t> cursor(op_offsets_.begin(), op_offsets_.end() - 1);
  for (std::size_t op = 0; op < source_.size(); ++op) {
    op_data_[cursor[source_[op]]++] = static_cast<std::uint32_t>(op);
  }

  observable_ = observable_net_mask(nl);
}

GateId ObservationPoints::dff_gate(std::size_t op) const {
  SP_ASSERT(is_dff_capture(op), "ObservationPoints: not a capture point");
  return cells_[op - num_pos_];
}

std::string ObservationPoints::name(const Netlist& nl, std::size_t op) const {
  if (op < num_pos_) {
    return "po:" + nl.gate_name(source_[op]);
  }
  return "dff:" + nl.gate_name(cells_[op - num_pos_]) + ".D";
}

std::string ObservationPoints::record_name(const Netlist& nl,
                                           std::size_t op) const {
  if (op < num_pos_) {
    return "po:" + nl.gate_name(source_[op]);
  }
  return "ff:" + nl.gate_name(cells_[op - num_pos_]);
}

std::size_t ObservationPoints::resolve_record_name(
    const Netlist& nl, const std::string& token) const {
  std::string kind;
  std::string net;
  if (token.rfind("po:", 0) == 0) {
    kind = "po";
    net = token.substr(3);
  } else if (token.rfind("ff:", 0) == 0) {
    kind = "ff";
    net = token.substr(3);
  } else if (token.rfind("dff:", 0) == 0) {
    kind = "ff";
    net = token.substr(4);
    if (net.size() > 2 && net.compare(net.size() - 2, 2, ".D") == 0) {
      net.resize(net.size() - 2);  // accept the informational ".D" suffix
    }
  } else {
    SP_CHECK(false, "failure log: bad observation-point token \"" + token +
                        "\" (expected po:<net> or ff:<cell>)");
  }
  const GateId g = nl.find(net);
  SP_CHECK(g != kInvalidGate,
           "failure log: unknown net \"" + net + "\" in \"" + token + "\"");
  if (kind == "ff") {
    const std::size_t op = point_of_dff(g);
    SP_CHECK(op != kNone,
             "failure log: \"" + net + "\" is not a scan cell");
    return op;
  }
  for (std::uint32_t op : points_of_gate(g)) {
    if (!is_dff_capture(op) && source_[op] == g) return op;
  }
  throw Error("failure log: \"" + net + "\" is not a primary output");
}

std::span<const std::uint32_t> ObservationPoints::points_of_gate(GateId g) const {
  return {op_data_.data() + op_offsets_[g], op_offsets_[g + 1] - op_offsets_[g]};
}

std::size_t ObservationPoints::point_of_dff(GateId d) const {
  const std::uint32_t op = dff_op_[d];
  return op == kNoPoint ? kNone : op;
}

ObservationConeCache::ObservationConeCache(const Netlist& nl,
                                           const ObservationPoints& points)
    : nl_(&nl), points_(&points) {
  cache_.resize(points.size());
  cached_.assign(points.size(), 0);
  mark_.assign(nl.num_gates(), 0);
}

const std::vector<GateId>& ObservationConeCache::cone(std::size_t op) {
  if (cached_[op]) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return cache_[op];
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  build(op);
  return cache_[op];
}

void ObservationConeCache::build(std::size_t op) {
  const Netlist& nl = *nl_;
  const std::span<const GateType> types = nl.types_flat();
  std::vector<GateId> out;
  std::vector<GateId> stack{points_->observed_gate(op)};
  // `mark_` is reusable scratch: every entry set here is in `out` and is
  // cleared before returning.
  mark_[stack[0]] = 1;
  while (!stack.empty()) {
    const GateId id = stack.back();
    stack.pop_back();
    out.push_back(id);
    // The scan boundary cuts the cone: a DFF's Q net is a pseudo-input
    // (its own fault site), but logic behind its D pin belongs to the
    // previous capture cycle.
    if (!is_combinational(types[id])) continue;
    for (GateId fin : nl.fanin_span(id)) {
      if (!mark_[fin]) {
        mark_[fin] = 1;
        stack.push_back(fin);
      }
    }
  }
  if (points_->is_dff_capture(op)) {
    const GateId cell = points_->dff_gate(op);
    if (!mark_[cell]) {
      mark_[cell] = 1;
      out.push_back(cell);  // D-branch fault sites live on the capture cell
    }
  }
  for (GateId id : out) mark_[id] = 0;
  cache_[op] = std::move(out);
  cached_[op] = 1;
}

void ObservationConeCache::build_all() {
  for (std::size_t op = 0; op < cache_.size(); ++op) {
    if (!cached_[op]) build(op);
  }
}

std::size_t ResponseMatrix::popcount() const {
  std::size_t n = 0;
  for (PatternWord w : words) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

void FailureLog::normalize() {
  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()), failures.end());
}

ResponseMatrix FailureLog::to_matrix(std::size_t num_points) const {
  ResponseMatrix m;
  m.num_points = num_points;
  m.num_patterns = num_patterns;
  m.words.assign(num_points * m.words_per_point(), 0);
  for (const Failure& f : failures) {
    SP_CHECK(f.pattern < num_patterns && f.op < num_points,
             "FailureLog: failure outside pattern/point range");
    m.set_bit(f.op, f.pattern);
  }
  return m;
}

void save_failure_log(std::ostream& out, const FailureLog& log,
                      const Netlist* nl, const ObservationPoints* ops,
                      bool named_records) {
  SP_CHECK(!named_records || (nl != nullptr && ops != nullptr),
           "save_failure_log: named records need the netlist and points");
  out << "# scanpower failure log\n";
  if (!log.circuit.empty()) out << "circuit " << log.circuit << "\n";
  out << "patterns " << log.num_patterns << "\n";
  for (const Failure& f : log.failures) {
    out << "fail " << f.pattern << " ";
    if (named_records) {
      SP_CHECK(f.op < ops->size(),
               "save_failure_log: failure outside the observation space");
      out << ops->record_name(*nl, f.op);
    } else {
      out << f.op;
      if (nl && ops && f.op < ops->size()) out << " " << ops->name(*nl, f.op);
    }
    out << "\n";
  }
  out << "end " << log.failures.size() << "\n";
}

namespace {

/// Strict non-negative index token: digits only, no sign, no trailing
/// characters ("12abc" and "-3" are parse errors, not 12 and a surprise).
bool parse_index_token(const std::string& tok, std::uint64_t& out) {
  if (tok.empty() || tok.size() > 19) return false;
  std::uint64_t v = 0;
  for (char c : tok) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

}  // namespace

FailureLog load_failure_log(std::istream& in, const Netlist* nl,
                            const ObservationPoints* ops) {
  FailureLog log;
  std::string line;
  std::size_t lineno = 0;
  bool have_circuit = false;
  bool have_patterns = false;
  bool have_end = false;
  std::unordered_set<std::uint64_t> seen;
  const auto fail_at = [&lineno](const std::string& what) {
    throw Error(strprintf("failure log line %zu: %s", lineno, what.c_str()));
  };
  while (std::getline(in, line)) {
    ++lineno;
    const std::string trimmed(trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::istringstream ls(trimmed);
    std::string kw;
    ls >> kw;
    if (have_end) fail_at("record \"" + kw + "\" after the end marker");
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
      if (!parse_index_token(tok, v)) {
        fail_at("bad pattern count \"" + tok + "\"");
      }
      log.num_patterns = static_cast<std::size_t>(v);
      have_patterns = true;
    } else if (kw == "fail") {
      if (!have_patterns) fail_at("fail record before the patterns header");
      Failure f;
      std::string pat_tok;
      std::string op_tok;
      ls >> pat_tok >> op_tok;
      if (op_tok.empty()) fail_at("expected \"fail <pattern> <op>\"");
      std::uint64_t pat = 0;
      if (!parse_index_token(pat_tok, pat)) {
        fail_at("bad pattern index \"" + pat_tok + "\"");
      }
      if (pat >= log.num_patterns) {
        fail_at(strprintf("pattern %llu out of range (log has %zu patterns)",
                          static_cast<unsigned long long>(pat),
                          log.num_patterns));
      }
      f.pattern = static_cast<std::uint32_t>(pat);
      if (op_tok.find(':') == std::string::npos) {
        std::uint64_t v = 0;
        if (!parse_index_token(op_tok, v) || v > 0xffffffffULL) {
          fail_at("bad point index \"" + op_tok + "\"");
        }
        if (ops != nullptr && v >= ops->size()) {
          fail_at(strprintf("point %llu out of range (%zu observation points)",
                            static_cast<unsigned long long>(v), ops->size()));
        }
        f.op = static_cast<std::uint32_t>(v);
        // Index records may carry one informational op-name token (save
        // emits "po:..."/"dff:...", always containing ':').
        std::string name_tok;
        ls >> name_tok;
        if (!name_tok.empty() &&
            name_tok.find(':') == std::string::npos) {
          fail_at("unexpected trailing token \"" + name_tok + "\"");
        }
      } else {
        if (nl == nullptr || ops == nullptr) {
          fail_at("name-based record \"" + op_tok +
                  "\" needs the netlist to resolve");
        }
        try {
          f.op =
              static_cast<std::uint32_t>(ops->resolve_record_name(*nl, op_tok));
        } catch (const Error& e) {
          fail_at(e.what());
        }
      }
      if (!seen.insert((static_cast<std::uint64_t>(f.pattern) << 32) | f.op)
               .second) {
        fail_at(strprintf("duplicate failure record (pattern %u, point %u)",
                          f.pattern, f.op));
      }
      log.failures.push_back(f);
    } else if (kw == "end") {
      std::string tok;
      ls >> tok;
      std::uint64_t v = 0;
      if (!parse_index_token(tok, v)) {
        fail_at("bad end-marker count \"" + tok + "\"");
      }
      if (v != log.failures.size()) {
        fail_at(strprintf("end marker claims %llu records but %zu were read",
                          static_cast<unsigned long long>(v),
                          log.failures.size()));
      }
      have_end = true;
    } else {
      fail_at("unknown keyword \"" + kw + "\"");
    }
    std::string rest;
    ls >> rest;
    if (!rest.empty()) fail_at("unexpected trailing token \"" + rest + "\"");
  }
  SP_CHECK(have_end,
           "failure log: truncated (missing \"end <count>\" marker)");
  log.normalize();
  return log;
}

void save_failure_log_file(const std::string& path, const FailureLog& log,
                           const Netlist* nl, const ObservationPoints* ops,
                           bool named_records) {
  std::ofstream f(path);
  SP_CHECK(f.good(), "cannot write " + path);
  save_failure_log(f, log, nl, ops, named_records);
}

FailureLog load_failure_log_file(const std::string& path, const Netlist* nl,
                                 const ObservationPoints* ops) {
  std::ifstream f(path);
  SP_CHECK(f.good(), "cannot read " + path);
  return load_failure_log(f, nl, ops);
}

void GoodBlockCache::bind(const Netlist& nl,
                          std::span<const TestPattern> patterns,
                          int block_words, std::size_t max_cached_blocks,
                          SimBackend backend) {
  check_block_words("GoodBlockCache", block_words, "block_words");
  nl_ = &nl;
  patterns_ = patterns;
  words_ = block_words;
  backend_ = backend;
  const std::size_t lanes = this->lanes();
  nblocks_ = (patterns.size() + lanes - 1) / lanes;
  cached_ = nblocks_ <= max_cached_blocks;
  blocks_.clear();
  ++binds_;
  if (!cached_) return;
  const auto t0 = std::chrono::steady_clock::now();
  blocks_.reserve(nblocks_);
  for (std::size_t base = 0; base < patterns.size(); base += lanes) {
    blocks_.emplace_back(nl, words_, backend_);
    load_pattern_block(nl, patterns, base, blocks_.back());
    blocks_.back().eval();
  }
  built_blocks_ += nblocks_;
  build_us_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

void GoodBlockCache::reset() {
  nl_ = nullptr;
  patterns_ = {};
  words_ = 0;
  nblocks_ = 0;
  cached_ = false;
  blocks_.clear();
}

void GoodBlockCache::require_bound_to(std::span<const TestPattern> patterns,
                                      int block_words) const {
  SP_CHECK(bound_to(patterns, block_words),
           "diagnose: the shared good-block cache is bound to a different "
           "pattern set (bind the session to these patterns first)");
}

const BlockSimulator& GoodBlockCache::block(
    std::size_t b, std::unique_ptr<BlockSimulator>& scratch) const {
  SP_ASSERT(bound() && b < nblocks_, "GoodBlockCache: block out of range");
  if (cached_) {
    cached_reads_.fetch_add(1, std::memory_order_relaxed);
    return blocks_[b];
  }
  streamed_reads_.fetch_add(1, std::memory_order_relaxed);
  if (!scratch) {
    scratch = std::make_unique<BlockSimulator>(*nl_, words_, backend_);
  }
  load_pattern_block(*nl_, patterns_, b * lanes(), *scratch);
  scratch->eval();
  return *scratch;
}

ResponseCapture::ResponseCapture(const Netlist& nl, int block_words,
                                 SimBackend backend)
    : nl_(&nl), words_(block_words), backend_(backend), points_(nl) {
  check_block_words("ResponseCapture", block_words, "block_words");
  eval_.init(nl, block_words, backend);
}

template <int W>
void ResponseCapture::capture_good_impl(std::span<const TestPattern> patterns,
                                        ResponseMatrix& out) {
  const Netlist& nl = *nl_;
  BlockSimulator good(nl, W, backend_);
  const std::size_t lanes = good.lanes();
  const std::size_t wpp = out.words_per_point();
  for (std::size_t base = 0; base < patterns.size(); base += lanes) {
    const std::size_t batch = std::min(lanes, patterns.size() - base);
    load_pattern_block(nl, patterns, base, good);
    good.eval();
    const PackedBlock<W> mask = lane_validity_mask<W>(batch);
    const std::size_t word0 = base / 64;
    const std::size_t nwords = (batch + 63) / 64;
    for (std::size_t op = 0; op < points_.size(); ++op) {
      const PatternWord* v = good.block(points_.observed_gate(op));
      PatternWord* row = out.words.data() + op * wpp + word0;
      for (std::size_t w = 0; w < nwords; ++w) {
        row[w] = v[w] & mask.w[w];
      }
    }
  }
}

ResponseMatrix ResponseCapture::capture_good(
    std::span<const TestPattern> patterns) {
  ResponseMatrix out;
  out.num_points = points_.size();
  out.num_patterns = patterns.size();
  out.words.assign(out.num_points * out.words_per_point(), 0);
  dispatch_words(words_, [&](auto w) {
    capture_good_impl<decltype(w)::value>(patterns, out);
  });
  return out;
}

template <int W>
void ResponseCapture::inject_impl(std::span<const TestPattern> patterns,
                                  const Fault& f, FailureLog& log) {
  const Netlist& nl = *nl_;
  BlockSimulator good(nl, W, backend_);
  const std::size_t lanes = good.lanes();
  for (std::size_t base = 0; base < patterns.size(); base += lanes) {
    const std::size_t batch = std::min(lanes, patterns.size() - base);
    load_pattern_block(nl, patterns, base, good);
    good.eval();
    const PackedBlock<W> mask = lane_validity_mask<W>(batch);
    eval_.propagate<W>(
        good, f, mask, points_.observable(),
        [&](GateId gate, const PatternWord* diff) {
          for (std::uint32_t op : points_.sink_points(f, gate)) {
            for (int w = 0; w < W; ++w) {
              PatternWord d = diff[w];
              while (d != 0) {
                const int lane = std::countr_zero(d);
                d &= d - 1;
                log.failures.push_back(
                    {static_cast<std::uint32_t>(base +
                                                static_cast<std::size_t>(w) * 64 +
                                                static_cast<std::size_t>(lane)),
                     op});
              }
            }
          }
        });
  }
}

FailureLog ResponseCapture::inject(std::span<const TestPattern> patterns,
                                   const Fault& f) {
  FailureLog log;
  log.circuit = nl_->name();
  log.num_patterns = patterns.size();
  dispatch_words(words_, [&](auto w) {
    inject_impl<decltype(w)::value>(patterns, f, log);
  });
  log.normalize();
  return log;
}

template <int W>
void ResponseCapture::inject_multi_impl(std::span<const TestPattern> patterns,
                                        std::span<const Fault> faults,
                                        FailureLog& log) {
  const Netlist& nl = *nl_;
  const std::span<const GateType> types = nl.types_flat();
  const std::span<const std::uint32_t> levels = nl.levels_flat();
  const std::span<const std::uint8_t> observable = points_.observable();

  // Split capture-branch faults from net faults: a stuck D branch
  // supersedes whatever the cell's driver computes, so it is compared
  // per cell after the shared cone sweep, against the *good* driver
  // value (the stuck branch hides any upstream corruption of the D net).
  std::vector<Fault> sites;
  std::vector<Fault> branches;
  std::vector<std::uint8_t> branch_stuck(nl.num_gates(), 0);
  for (const Fault& f : faults) {
    if (points_.is_d_branch(f)) {
      SP_CHECK(!branch_stuck[f.gate],
               "inject: contradictory faults on one capture branch");
      branch_stuck[f.gate] = 1;
      branches.push_back(f);
    } else {
      sites.push_back(f);
    }
  }
  // Per-gate forcing plan. A gate may carry several faults at once: a
  // stuck output (stem) plus stuck inputs (pins), or several stuck pins.
  // The stem forcing supersedes every pin forcing on the same gate; only
  // opposite stuck-at values on the *same* site are contradictory (an
  // impossible chip) and rejected.
  std::vector<std::uint8_t> is_site(nl.num_gates(), 0);
  std::vector<std::int8_t> stem_force(nl.num_gates(), -1);
  std::unordered_map<GateId, std::vector<std::pair<int, bool>>> pin_forces;
  for (const Fault& f : sites) {
    is_site[f.gate] = 1;
    if (f.pin < 0) {
      // Duplicates were collapsed, so a second stem fault here must have
      // the opposite polarity.
      SP_CHECK(stem_force[f.gate] < 0,
               "inject: contradictory stem faults on one gate");
      stem_force[f.gate] = f.stuck_at ? 1 : 0;
    } else {
      auto& forces = pin_forces[f.gate];
      for (const auto& [pin, stuck] : forces) {
        SP_CHECK(pin != f.pin,
                 "inject: contradictory faults on one gate input");
      }
      forces.emplace_back(f.pin, f.stuck_at);
    }
  }

  // Merged, level-sorted union of the sites' fanout cones: one in-order
  // sweep evaluates the machine carrying every fault at once, so effects
  // interact exactly (an upstream fault's corrupted value feeds the
  // downstream site's pin-forced re-evaluation).
  std::vector<std::uint8_t> in_union(nl.num_gates(), 0);
  std::vector<GateId> union_cone;
  for (const Fault& f : sites) {
    for (GateId g : eval_.cone(f.gate)) {
      if (!in_union[g]) {
        in_union[g] = 1;
        union_cone.push_back(g);
      }
    }
  }
  std::sort(union_cone.begin(), union_cone.end(), [&](GateId a, GateId b) {
    return levels[a] != levels[b] ? levels[a] < levels[b] : a < b;
  });

  BlockSimulator good(nl, W, backend_);
  const std::size_t lanes = good.lanes();
  std::vector<PatternWord> faulty(nl.num_gates() * static_cast<std::size_t>(W));
  std::vector<std::uint8_t> touched(nl.num_gates(), 0);
  std::vector<GateId> active;
  std::vector<PatternWord> ins;
  const auto fanin_block = [&](GateId fin) {
    return touched[fin] ? faulty.data() + static_cast<std::size_t>(fin) * W
                        : good.block(fin);
  };

  for (std::size_t base = 0; base < patterns.size(); base += lanes) {
    const std::size_t batch = std::min(lanes, patterns.size() - base);
    load_pattern_block(nl, patterns, base, good);
    good.eval();
    const PackedBlock<W> mask = lane_validity_mask<W>(batch);

    const auto emit = [&](std::uint32_t op, const PatternWord* diff) {
      for (int w = 0; w < W; ++w) {
        PatternWord d = diff[w];
        while (d != 0) {
          const int lane = std::countr_zero(d);
          d &= d - 1;
          log.failures.push_back(
              {static_cast<std::uint32_t>(base +
                                          static_cast<std::size_t>(w) * 64 +
                                          static_cast<std::size_t>(lane)),
               op});
        }
      }
    };

    active.clear();
    for (GateId id : union_cone) {
      const std::span<const GateId> fans = nl.fanin_span(id);
      PatternWord out[W];
      if (is_site[id]) {
        if (stem_force[id] >= 0) {
          const PatternWord forced = stem_force[id] ? ~PatternWord{0} : 0;
          for (int w = 0; w < W; ++w) out[w] = forced;
        } else {
          const auto& forces = pin_forces.find(id)->second;
          ins.resize(fans.size());
          for (int w = 0; w < W; ++w) {
            for (std::size_t p = 0; p < fans.size(); ++p) {
              ins[p] = fanin_block(fans[p])[w];
            }
            for (const auto& [pin, stuck] : forces) {
              ins[static_cast<std::size_t>(pin)] =
                  stuck ? ~PatternWord{0} : 0;
            }
            out[w] = eval_type_packed(types[id], ins);
          }
        }
      } else {
        std::uint8_t any_touched = 0;
        for (GateId fin : fans) any_touched |= touched[fin];
        if (!any_touched) continue;
        eval_gate_block<W>(types[id], fans, fanin_block, out);
      }
      const PatternWord* g = good.block(id);
      PatternWord raw = 0;
      for (int w = 0; w < W; ++w) raw |= out[w] ^ g[w];
      if (raw == 0) continue;
      PatternWord* const fb = faulty.data() + static_cast<std::size_t>(id) * W;
      for (int w = 0; w < W; ++w) fb[w] = out[w];
      touched[id] = 1;
      active.push_back(id);
      if (!observable[id]) continue;
      PatternWord diff[W];
      PatternWord any = 0;
      for (int w = 0; w < W; ++w) {
        diff[w] = (out[w] ^ g[w]) & mask.w[w];
        any |= diff[w];
      }
      if (any == 0) continue;
      for (std::uint32_t op : points_.points_of_gate(id)) {
        if (points_.is_dff_capture(op) &&
            branch_stuck[points_.dff_gate(op)]) {
          continue;
        }
        emit(op, diff);
      }
    }
    for (const Fault& f : branches) {
      const PatternWord* good_d = good.block(nl.fanin_span(f.gate)[0]);
      const PatternWord forced = f.stuck_at ? ~PatternWord{0} : 0;
      PatternWord diff[W];
      PatternWord any = 0;
      for (int w = 0; w < W; ++w) {
        diff[w] = (good_d[w] ^ forced) & mask.w[w];
        any |= diff[w];
      }
      if (any != 0) {
        emit(static_cast<std::uint32_t>(points_.point_of_dff(f.gate)), diff);
      }
    }
    for (GateId id : active) touched[id] = 0;
  }
}

FailureLog ResponseCapture::inject(std::span<const TestPattern> patterns,
                                   std::span<const Fault> faults) {
  FailureLog log;
  log.circuit = nl_->name();
  log.num_patterns = patterns.size();
  std::vector<Fault> unique_faults(faults.begin(), faults.end());
  std::sort(unique_faults.begin(), unique_faults.end(),
            [](const Fault& a, const Fault& b) {
              if (a.gate != b.gate) return a.gate < b.gate;
              if (a.pin != b.pin) return a.pin < b.pin;
              return a.stuck_at < b.stuck_at;
            });
  unique_faults.erase(std::unique(unique_faults.begin(), unique_faults.end()),
                      unique_faults.end());
  dispatch_words(words_, [&](auto w) {
    inject_multi_impl<decltype(w)::value>(patterns, unique_faults, log);
  });
  log.normalize();
  return log;
}

}  // namespace scanpower
