#pragma once
// Technology mapping into the paper's cell library: NAND, NOR, INV
// (plus DFFs and constants, which pass through).
//
// The DATE'05 evaluation maps every ISCAS89 circuit onto a library that
// "contains only NAND gates, NOR gates, and inverters"; the leakage tables
// (power module) cover exactly that library. map_to_nand_nor_inv() is a
// correctness-preserving structural rewrite:
//
//   BUF           -> bypassed (uses rewired to the driver)
//   AND/OR        -> NAND/NOR + INV (trees when wider than max_width)
//   NAND/NOR wide -> balanced trees of <=max_width cells
//   XOR/XNOR      -> 4-NAND2 cells per 2-input stage, chained for n>2
//   MUX(s,a,b)    -> NAND(NAND(a, INV s), NAND(b, s))
//
// Primary outputs keep their original net names so test vectors and
// response comparison remain valid across mapping.

#include <string>

#include "netlist/netlist.hpp"

namespace scanpower {

struct TechmapOptions {
  /// Maximum fanin width of a NAND/NOR cell in the target library.
  /// The leakage model provides tables for widths 2..4.
  int max_width = 4;
};

/// Returns a functionally equivalent netlist using only
/// {NAND, NOR, NOT, DFF, INPUT, CONST0, CONST1}.
Netlist map_to_nand_nor_inv(const Netlist& nl, const TechmapOptions& opts = {});

/// True iff every gate of `nl` belongs to the target library.
bool is_mapped(const Netlist& nl, const TechmapOptions& opts = {});

/// Loads a .bench or structural .v design (picked by the file extension)
/// and, when `do_map` is set and it is not mapped yet, maps it onto the
/// target library. The one design loader of the CLIs and the diagnosis
/// service; parse failures throw the parsers' line-numbered errors.
Netlist load_design(const std::string& path, bool do_map);

}  // namespace scanpower
