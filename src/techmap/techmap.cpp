#include "techmap/techmap.hpp"

#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/verilog_io.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace scanpower {

namespace {

/// Emits mapped gates into a NetlistBuilder, tracking name aliases for
/// bypassed buffers and generating unique auxiliary net names.
class Mapper {
 public:
  Mapper(const Netlist& src, const TechmapOptions& opts)
      : src_(src), opts_(opts), builder_(src.name()) {
    SP_CHECK(opts.max_width >= 2, "techmap: max_width must be >= 2");
  }

  Netlist run() {
    // Emit in original order; name-based building tolerates forward
    // references, and aliases are resolved lazily at link time via a
    // pre-pass that computes them in topological-ish order below.
    compute_aliases();
    for (GateId id = 0; id < src_.num_gates(); ++id) emit_gate(id);
    for (GateId id : src_.outputs()) builder_.add_output(alias_[id]);
    return builder_.link();
  }

 private:
  void compute_aliases() {
    alias_.resize(src_.num_gates());
    // Buffers collapse onto their (transitively resolved) driver. Buffer
    // chains are resolved by walking until a non-buffer is found; cycles
    // are impossible in a finalized netlist.
    for (GateId id = 0; id < src_.num_gates(); ++id) {
      GateId g = id;
      while (src_.type(g) == GateType::Buf) g = src_.fanins(g)[0];
      alias_[id] = src_.gate_name(g);
    }
  }

  std::string fresh(const std::string& hint) {
    for (;;) {
      std::string name = strprintf("tm$%s$%u", hint.c_str(), counter_++);
      if (src_.find(name) == kInvalidGate) return name;
    }
  }

  std::vector<std::string> fanin_names(GateId id) {
    std::vector<std::string> names;
    names.reserve(src_.fanins(id).size());
    for (GateId f : src_.fanins(id)) names.push_back(alias_[f]);
    return names;
  }

  // ---- library-cell emission helpers ---------------------------------

  std::string emit_not(const std::string& a, const std::string& out = "") {
    const std::string name = out.empty() ? fresh("inv") : out;
    builder_.add_gate(GateType::Not, name, {a});
    return name;
  }

  /// AND of `ins` realized as NAND+INV trees; returns the output net name.
  /// If `out` is non-empty the final net uses that name.
  std::string emit_and(std::vector<std::string> ins, const std::string& out) {
    const std::string n = emit_nand(std::move(ins), "");
    return emit_not(n, out);
  }

  std::string emit_or(std::vector<std::string> ins, const std::string& out) {
    const std::string n = emit_nor(std::move(ins), "");
    return emit_not(n, out);
  }

  std::string emit_nand(std::vector<std::string> ins, const std::string& out) {
    SP_ASSERT(ins.size() >= 2, "emit_nand needs >= 2 inputs");
    if (static_cast<int>(ins.size()) <= opts_.max_width) {
      const std::string name = out.empty() ? fresh("nand") : out;
      builder_.add_gate(GateType::Nand, name, ins);
      return name;
    }
    // Reduce the operand list with AND groups until it fits one cell.
    return emit_nand(reduce_groups(std::move(ins), /*with_and=*/true), out);
  }

  std::string emit_nor(std::vector<std::string> ins, const std::string& out) {
    SP_ASSERT(ins.size() >= 2, "emit_nor needs >= 2 inputs");
    if (static_cast<int>(ins.size()) <= opts_.max_width) {
      const std::string name = out.empty() ? fresh("nor") : out;
      builder_.add_gate(GateType::Nor, name, ins);
      return name;
    }
    return emit_nor(reduce_groups(std::move(ins), /*with_and=*/false), out);
  }

  /// Groups operands into chunks of max_width and replaces each chunk by
  /// its AND (or OR). Guarantees the result is strictly shorter, so the
  /// emit_nand/emit_nor recursion terminates.
  std::vector<std::string> reduce_groups(std::vector<std::string> ins,
                                         bool with_and) {
    std::vector<std::string> next;
    std::size_t i = 0;
    const std::size_t w = static_cast<std::size_t>(opts_.max_width);
    while (i < ins.size()) {
      const std::size_t take = std::min(w, ins.size() - i);
      if (take == 1) {
        next.push_back(ins[i]);
      } else {
        std::vector<std::string> group(ins.begin() + static_cast<long>(i),
                                       ins.begin() + static_cast<long>(i + take));
        next.push_back(with_and ? emit_and(std::move(group), "")
                                : emit_or(std::move(group), ""));
      }
      i += take;
    }
    return next;
  }

  /// 2-input XOR from four NAND2 cells.
  std::string emit_xor2(const std::string& a, const std::string& b,
                        const std::string& out) {
    const std::string m = fresh("xm");
    builder_.add_gate(GateType::Nand, m, {a, b});
    const std::string pa = fresh("xa");
    builder_.add_gate(GateType::Nand, pa, {a, m});
    const std::string pb = fresh("xb");
    builder_.add_gate(GateType::Nand, pb, {b, m});
    const std::string name = out.empty() ? fresh("xor") : out;
    builder_.add_gate(GateType::Nand, name, {pa, pb});
    return name;
  }

  std::string emit_parity(const std::vector<std::string>& ins, bool invert,
                          const std::string& out) {
    std::string acc = ins[0];
    for (std::size_t i = 1; i + 1 < ins.size(); ++i) {
      acc = emit_xor2(acc, ins[i], "");
    }
    if (!invert) return emit_xor2(acc, ins.back(), out);
    const std::string x = emit_xor2(acc, ins.back(), "");
    return emit_not(x, out);
  }

  void emit_gate(GateId id) {
    const Gate& g = src_.gate(id);
    const std::string& out = g.name;
    switch (g.type) {
      case GateType::Input:
        builder_.add_input(out);
        return;
      case GateType::Dff:
        builder_.add_gate(GateType::Dff, out, {alias_[g.fanins[0]]});
        return;
      case GateType::Const0:
      case GateType::Const1:
        builder_.add_gate(g.type, out, {});
        return;
      case GateType::Buf:
        return;  // bypassed via alias
      case GateType::Not:
        emit_not(alias_[g.fanins[0]], out);
        return;
      case GateType::And:
        emit_and(fanin_names(id), out);
        return;
      case GateType::Or:
        emit_or(fanin_names(id), out);
        return;
      case GateType::Nand:
        emit_nand(fanin_names(id), out);
        return;
      case GateType::Nor:
        emit_nor(fanin_names(id), out);
        return;
      case GateType::Xor:
        emit_parity(fanin_names(id), /*invert=*/false, out);
        return;
      case GateType::Xnor:
        emit_parity(fanin_names(id), /*invert=*/true, out);
        return;
      case GateType::Mux: {
        // out = s ? b : a  ==  NAND(NAND(a, !s), NAND(b, s))
        const auto names = fanin_names(id);
        const std::string& s = names[0];
        const std::string& a = names[1];
        const std::string& b = names[2];
        const std::string ns = emit_not(s);
        const std::string ta = fresh("mta");
        builder_.add_gate(GateType::Nand, ta, {a, ns});
        const std::string tb = fresh("mtb");
        builder_.add_gate(GateType::Nand, tb, {b, s});
        builder_.add_gate(GateType::Nand, out, {ta, tb});
        return;
      }
    }
    SP_ASSERT(false, "unhandled gate type in techmap");
  }

  const Netlist& src_;
  TechmapOptions opts_;
  NetlistBuilder builder_;
  std::vector<std::string> alias_;
  unsigned counter_ = 0;
};

bool is_verilog_path(const std::string& path) {
  return path.size() > 2 && path.rfind(".v") == path.size() - 2;
}

}  // namespace

Netlist map_to_nand_nor_inv(const Netlist& nl, const TechmapOptions& opts) {
  // A buffer driven only by buffers up to a PI that is also a PO would
  // alias a PO name to a PI; that is fine (OUTPUT(pi) is legal in .bench).
  Mapper mapper(nl, opts);
  return mapper.run();
}

bool is_mapped(const Netlist& nl, const TechmapOptions& opts) {
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    switch (nl.type(id)) {
      case GateType::Input:
      case GateType::Dff:
      case GateType::Const0:
      case GateType::Const1:
      case GateType::Not:
        break;
      case GateType::Nand:
      case GateType::Nor:
        if (static_cast<int>(nl.fanins(id).size()) > opts.max_width) return false;
        break;
      default:
        return false;
    }
  }
  return true;
}

Netlist load_design(const std::string& path, bool do_map) {
  Netlist nl = is_verilog_path(path) ? parse_verilog_file(path)
                                     : parse_bench_file(path);
  if (do_map && !is_mapped(nl)) nl = map_to_nand_nor_inv(nl);
  return nl;
}

}  // namespace scanpower
