#pragma once
// Multi-word parallel-pattern binary simulation.
//
// Each gate's value is a block of W 64-bit words (W*64 fully specified
// patterns per sweep, one pattern per bit lane). W is selected at runtime
// from kBlockWords; full evaluation dispatches through a per-backend
// kernel table (see sim_backend.hpp / sim_kernels.hpp), so the same
// simulator runs scalar, AVX2 or AVX-512 kernels with bit-identical
// results. Used by the fault simulator (good machine + cone-restricted
// faulty machine) and by random-phase test generation.
//
// This header owns the block-width set: every engine validates a width
// with check_block_words and turns it into a template argument with
// dispatch_words, so no other file lists the widths.
//
// Inner loops read the netlist through the flat CSR views (fanin_span /
// types_flat) and use fixed-fanin fast paths for the NAND/NOR/INV-mapped
// library: a 2-input NAND costs two loads, an AND and a NOT per word,
// with no per-gate fanin-vector rebuild.

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "atpg/sim_backend.hpp"
#include "netlist/netlist.hpp"
#include "util/assert.hpp"

namespace scanpower {

using PatternWord = std::uint64_t;

struct SimKernels;  // sim_kernels.hpp

/// A block of W pattern words (W*64 bit lanes).
template <int W>
struct PackedBlock {
  std::array<PatternWord, W> w{};

  bool any() const {
    PatternWord acc = 0;
    for (PatternWord x : w) acc |= x;
    return acc != 0;
  }
};

/// The block widths (words per gate) every packed engine and every kernel
/// backend supports.
inline constexpr std::array<int, 4> kBlockWords = {1, 2, 4, 8};

inline constexpr bool is_valid_block_words(int w) {
  for (int v : kBlockWords) {
    if (v == w) return true;
  }
  return false;
}

/// Throws Error "<who>: <knob> must be 1, 2, 4 or 8 (got <w>)" unless `w`
/// is in kBlockWords.
void check_block_words(const char* who, int w, const char* knob);

/// Calls `fn(std::integral_constant<int, W>{})` for the W in kBlockWords
/// equal to `words`, so a generic lambda can instantiate a per-width
/// template. `words` must be valid (checked by the engine's constructor).
template <typename Fn>
void dispatch_words(int words, Fn&& fn) {
  const bool hit = [&]<std::size_t... I>(std::index_sequence<I...>) {
    return ((words == kBlockWords[I] &&
             (fn(std::integral_constant<int, kBlockWords[I]>{}), true)) ||
            ...);
  }(std::make_index_sequence<kBlockWords.size()>{});
  SP_ASSERT(hit, "dispatch_words: unsupported block width");
}

/// Lane-validity mask for a block holding `batch` patterns (a final block
/// of a pattern set may only partially fill its words): lane i is set iff
/// i < batch.
template <int W>
inline PackedBlock<W> lane_validity_mask(std::size_t batch) {
  PackedBlock<W> mask;
  for (int w = 0; w < W; ++w) {
    const std::size_t lane0 = static_cast<std::size_t>(w) * 64;
    if (batch >= lane0 + 64) {
      mask.w[w] = ~PatternWord{0};
    } else if (batch > lane0) {
      mask.w[w] = (PatternWord{1} << (batch - lane0)) - 1;
    } else {
      mask.w[w] = 0;
    }
  }
  return mask;
}

/// Evaluates one gate over per-fanin word blocks. `fanin_block(f)` must
/// return a pointer to fanin f's W-word block; `out` receives W words.
/// Instantiated per width so the word loops unroll; the 1- and 2-input
/// cases of the mapped library bypass the generic accumulation loop.
template <int W, typename FaninBlockFn>
inline void eval_gate_block(GateType type, std::span<const GateId> fanins,
                            FaninBlockFn&& fanin_block, PatternWord* out) {
  const std::size_t n = fanins.size();
  switch (type) {
    case GateType::Const0:
      for (int w = 0; w < W; ++w) out[w] = 0;
      return;
    case GateType::Const1:
      for (int w = 0; w < W; ++w) out[w] = ~PatternWord{0};
      return;
    case GateType::Buf: {
      const PatternWord* a = fanin_block(fanins[0]);
      for (int w = 0; w < W; ++w) out[w] = a[w];
      return;
    }
    case GateType::Not: {
      const PatternWord* a = fanin_block(fanins[0]);
      for (int w = 0; w < W; ++w) out[w] = ~a[w];
      return;
    }
    case GateType::And:
    case GateType::Nand: {
      if (n == 2) {
        const PatternWord* a = fanin_block(fanins[0]);
        const PatternWord* b = fanin_block(fanins[1]);
        if (type == GateType::And) {
          for (int w = 0; w < W; ++w) out[w] = a[w] & b[w];
        } else {
          for (int w = 0; w < W; ++w) out[w] = ~(a[w] & b[w]);
        }
        return;
      }
      const PatternWord* a = fanin_block(fanins[0]);
      for (int w = 0; w < W; ++w) out[w] = a[w];
      for (std::size_t i = 1; i < n; ++i) {
        const PatternWord* b = fanin_block(fanins[i]);
        for (int w = 0; w < W; ++w) out[w] &= b[w];
      }
      if (type == GateType::Nand) {
        for (int w = 0; w < W; ++w) out[w] = ~out[w];
      }
      return;
    }
    case GateType::Or:
    case GateType::Nor: {
      if (n == 2) {
        const PatternWord* a = fanin_block(fanins[0]);
        const PatternWord* b = fanin_block(fanins[1]);
        if (type == GateType::Or) {
          for (int w = 0; w < W; ++w) out[w] = a[w] | b[w];
        } else {
          for (int w = 0; w < W; ++w) out[w] = ~(a[w] | b[w]);
        }
        return;
      }
      const PatternWord* a = fanin_block(fanins[0]);
      for (int w = 0; w < W; ++w) out[w] = a[w];
      for (std::size_t i = 1; i < n; ++i) {
        const PatternWord* b = fanin_block(fanins[i]);
        for (int w = 0; w < W; ++w) out[w] |= b[w];
      }
      if (type == GateType::Nor) {
        for (int w = 0; w < W; ++w) out[w] = ~out[w];
      }
      return;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      const PatternWord* a = fanin_block(fanins[0]);
      for (int w = 0; w < W; ++w) out[w] = a[w];
      for (std::size_t i = 1; i < n; ++i) {
        const PatternWord* b = fanin_block(fanins[i]);
        for (int w = 0; w < W; ++w) out[w] ^= b[w];
      }
      if (type == GateType::Xnor) {
        for (int w = 0; w < W; ++w) out[w] = ~out[w];
      }
      return;
    }
    case GateType::Mux: {
      const PatternWord* s = fanin_block(fanins[0]);
      const PatternWord* a = fanin_block(fanins[1]);
      const PatternWord* b = fanin_block(fanins[2]);
      for (int w = 0; w < W; ++w) out[w] = (~s[w] & a[w]) | (s[w] & b[w]);
      return;
    }
    case GateType::Input:
    case GateType::Dff:
      break;  // sources: asserted below
  }
  SP_ASSERT(false, "eval_gate_block on a source");
}

/// Runtime-width packed simulator: gate values are contiguous W-word
/// blocks, gate-major (`block(id)[w]`).
class BlockSimulator {
 public:
  explicit BlockSimulator(const Netlist& nl, int words = 4,
                          SimBackend backend = SimBackend::Auto);

  int words() const { return words_; }
  /// The resolved kernel backend (never Auto).
  SimBackend backend() const { return backend_; }
  std::size_t lanes() const { return static_cast<std::size_t>(words_) * 64; }

  PatternWord* block(GateId id) {
    return values_.data() + static_cast<std::size_t>(id) * words_;
  }
  const PatternWord* block(GateId id) const {
    return values_.data() + static_cast<std::size_t>(id) * words_;
  }
  PatternWord word(GateId id, int wi) const { return block(id)[wi]; }
  void set_source_word(GateId id, int wi, PatternWord w) { block(id)[wi] = w; }

  /// Full levelized evaluation (good machine) over all W words, through
  /// the resolved backend's kernel table.
  void eval();

  const std::vector<PatternWord>& storage() const { return values_; }

 protected:
  const Netlist* nl_;
  int words_;
  SimBackend backend_;        ///< resolved, never Auto
  const SimKernels* kern_;    ///< backend kernel table
  std::vector<PatternWord> values_;  ///< num_gates * words_, gate-major
};

/// Single-word (64-pattern) view, kept as the convenience API for tests
/// and random-phase TPG.
class PackedSimulator : public BlockSimulator {
 public:
  explicit PackedSimulator(const Netlist& nl) : BlockSimulator(nl, 1) {}

  /// Sets one source's word (bit lane = pattern index).
  void set_source(GateId id, PatternWord w) { set_source_word(id, 0, w); }
  PatternWord value(GateId id) const { return word(id, 0); }
  const std::vector<PatternWord>& values() const { return storage(); }
};

/// Pure combinational word evaluation for a gate type.
PatternWord eval_type_packed(GateType type, std::span<const PatternWord> ins);

}  // namespace scanpower
