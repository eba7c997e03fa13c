#pragma once
// Seeded random netlists over every gate type the implication engines
// evaluate, for exactness tests against the full-imply oracles.
// Header-only because every tests/*.cpp builds into its own executable.

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace scanpower {

/// A seeded random netlist over every gate type the engine evaluates
/// (benchgen emits only AND/OR/NAND/NOR/NOT): XOR/XNOR/MUX/BUF, constants,
/// DFFs, and POs on PIs and DFFs.
inline Netlist random_mixed_netlist(std::uint64_t seed, int num_gates) {
  Rng rng(seed);
  NetlistBuilder b("mixed" + std::to_string(seed));
  std::vector<std::string> nets;
  for (int i = 0; i < 6; ++i) {
    nets.push_back("i" + std::to_string(i));
    b.add_input(nets.back());
  }
  const int num_ff = 4;
  for (int i = 0; i < num_ff; ++i) nets.push_back("q" + std::to_string(i));
  const auto pick = [&] { return nets[rng.next_below(nets.size())]; };
  constexpr GateType kTypes[] = {
      GateType::And, GateType::Nand, GateType::Or,   GateType::Nor,
      GateType::Xor, GateType::Xnor, GateType::Not,  GateType::Buf,
      GateType::Mux, GateType::And,  GateType::Nand, GateType::Const0,
      GateType::Const1};
  for (int g = 0; g < num_gates; ++g) {
    GateType t = kTypes[rng.next_below(std::size(kTypes))];
    // Constants are rare in real netlists; keep them to a few.
    if ((t == GateType::Const0 || t == GateType::Const1) &&
        rng.next_below(4) != 0) {
      t = GateType::Xor;
    }
    std::vector<std::string> ins;
    std::size_t arity = 0;
    switch (t) {
      case GateType::Const0:
      case GateType::Const1: arity = 0; break;
      case GateType::Not:
      case GateType::Buf: arity = 1; break;
      case GateType::Mux: arity = 3; break;
      default: arity = 2 + rng.next_below(2); break;
    }
    for (std::size_t k = 0; k < arity; ++k) ins.push_back(pick());
    const std::string name = "g" + std::to_string(g);
    b.add_gate(t, name, ins);
    nets.push_back(name);
  }
  // DFF D pins and POs from the deepest third of the gates.
  const auto late = [&] {
    const std::size_t lo =
        nets.size() - static_cast<std::size_t>(num_gates) / 3;
    return nets[lo + rng.next_below(nets.size() - lo)];
  };
  for (int i = 0; i < num_ff; ++i) {
    b.add_gate(GateType::Dff, "q" + std::to_string(i), {late()});
  }
  for (int i = 0; i < 4; ++i) b.add_output(late());
  b.add_output("i0");  // a PI that is also a PO
  b.add_output("q0");  // a DFF that is also a PO
  return b.link();
}

}  // namespace scanpower
