#pragma once
// Cases and checks shared by the PODEM exactness and verdict tests: a
// hand-built netlist of corner cases, the fault list that includes DFF
// pin faults, and the fault-simulation check of a reported pattern.
// Header-only because every tests/*.cpp builds into its own executable.

#include <span>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"

namespace scanpower {

/// True when `p` detects `f` with its X bits filled all-0 and all-1 (a
/// 3-valued detection holds under every fill).
inline bool pattern_detects(FaultSimulator& fsim, const TestPattern& p,
                            const Fault& f) {
  for (const Logic fill : {Logic::Zero, Logic::One}) {
    TestPattern filled = p;
    for (Logic& v : filled.pi) v = v == Logic::X ? fill : v;
    for (Logic& v : filled.ppi) v = v == Logic::X ? fill : v;
    if (!fsim.run(std::span(&filled, 1), std::span(&f, 1)).detected[0]) {
      return false;
    }
  }
  return true;
}

/// Every uncollapsed fault plus both pin faults of every DFF's D pin.
inline std::vector<Fault> every_fault_with_dff_pins(const Netlist& nl) {
  std::vector<Fault> faults = enumerate_faults(nl);
  for (GateId ff : nl.dffs()) {
    faults.push_back({ff, 0, false});
    faults.push_back({ff, 0, true});
  }
  return faults;
}

/// Constants feeding logic (one beside a deep pin), a PI that is also a
/// PO, a DFF that is also a PO, DFFs fed directly by a PI and by another
/// DFF, XOR/MUX/BUF side logic.
inline Netlist corner_netlist() {
  NetlistBuilder b("corners");
  b.add_input("a");
  b.add_input("b");
  b.add_input("c");
  b.add_input("s");
  b.add_gate(GateType::Const0, "zero", {});
  b.add_gate(GateType::Const1, "one", {});
  b.add_gate(GateType::Dff, "q1", {"a"});   // D driven by a PI
  b.add_gate(GateType::Dff, "q2", {"q1"});  // D driven by a DFF
  b.add_gate(GateType::Dff, "q3", {"m"});
  b.add_gate(GateType::And, "g1", {"a", "one"});
  b.add_gate(GateType::Or, "g2", {"b", "zero"});
  b.add_gate(GateType::And, "g3", {"c", "zero"});  // constant 0
  b.add_gate(GateType::Xor, "x1", {"g1", "q2"});
  b.add_gate(GateType::Xnor, "x2", {"g2", "q3"});
  b.add_gate(GateType::Mux, "m", {"s", "x1", "x2"});
  b.add_gate(GateType::Buf, "bf", {"m"});
  b.add_gate(GateType::Nor, "n1", {"bf", "g3"});
  b.add_gate(GateType::Nand, "n2", {"n1", "x1", "c"});
  b.add_gate(GateType::And, "n3", {"one", "n2"});  // constant beside a deep pin
  b.add_output("a");   // PI that is also a PO
  b.add_output("q2");  // DFF that is also a PO
  b.add_output("n3");
  b.add_output("g3");
  return b.link();
}

}  // namespace scanpower
