#include "atpg/packed_sim.hpp"

#include "atpg/sim_kernels.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace scanpower {

void check_block_words(const char* who, int w, const char* knob) {
  if (is_valid_block_words(w)) return;
  std::string set;
  for (std::size_t i = 0; i < kBlockWords.size(); ++i) {
    if (i > 0) set += i + 1 == kBlockWords.size() ? " or " : ", ";
    set += std::to_string(kBlockWords[i]);
  }
  throw Error(
      strprintf("%s: %s must be %s (got %d)", who, knob, set.c_str(), w));
}

PatternWord eval_type_packed(GateType type, std::span<const PatternWord> ins) {
  switch (type) {
    case GateType::Const0:
      return 0;
    case GateType::Const1:
      return ~PatternWord{0};
    case GateType::Buf:
      return ins[0];
    case GateType::Not:
      return ~ins[0];
    case GateType::And:
    case GateType::Nand: {
      PatternWord acc = ~PatternWord{0};
      for (PatternWord w : ins) acc &= w;
      return type == GateType::And ? acc : ~acc;
    }
    case GateType::Or:
    case GateType::Nor: {
      PatternWord acc = 0;
      for (PatternWord w : ins) acc |= w;
      return type == GateType::Or ? acc : ~acc;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      PatternWord acc = 0;
      for (PatternWord w : ins) acc ^= w;
      return type == GateType::Xor ? acc : ~acc;
    }
    case GateType::Mux:
      return (~ins[0] & ins[1]) | (ins[0] & ins[2]);
    case GateType::Input:
    case GateType::Dff:
      SP_ASSERT(false, "eval_type_packed on a source");
  }
  SP_ASSERT(false, "unhandled type in eval_type_packed");
}

BlockSimulator::BlockSimulator(const Netlist& nl, int words,
                               SimBackend backend)
    : nl_(&nl), words_(words) {
  SP_CHECK(nl.finalized(), "BlockSimulator requires a finalized netlist");
  check_block_words("BlockSimulator", words, "words");
  backend_ = resolve_backend(backend, words);
  kern_ = &sim_kernels(backend_);
  values_.assign(nl.num_gates() * static_cast<std::size_t>(words_), 0);
}

void BlockSimulator::eval() { kern_->eval_full(*nl_, values_.data(), words_); }

}  // namespace scanpower
