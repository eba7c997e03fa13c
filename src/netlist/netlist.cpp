#include "netlist/netlist.hpp"

#include <algorithm>
#include <queue>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace scanpower {

GateId Netlist::add_gate(GateType type, std::string name,
                         std::vector<GateId> fanins) {
  SP_CHECK(!name.empty(), "gate name must be non-empty");
  SP_CHECK(by_name_.find(name) == by_name_.end(),
           "duplicate net name: " + name);
  // Fanin ids may reference gates added later (forward references are
  // normal in .bench); ranges are validated in finalize().
  const GateId id = static_cast<GateId>(gates_.size());
  Gate g;
  g.type = type;
  g.name = std::move(name);
  g.fanins = std::move(fanins);
  by_name_.emplace(g.name, id);
  if (type == GateType::Input) inputs_.push_back(id);
  if (type == GateType::Dff) dffs_.push_back(id);
  gates_.push_back(std::move(g));
  finalized_ = false;
  return id;
}

void Netlist::mark_output(GateId id) {
  SP_CHECK(id < gates_.size(), "mark_output: gate id out of range");
  if (!gates_[id].is_output) {
    gates_[id].is_output = true;
    outputs_.push_back(id);
  }
}

void Netlist::replace_uses(GateId from, GateId to) {
  SP_CHECK(from < gates_.size() && to < gates_.size(),
           "replace_uses: gate id out of range");
  for (Gate& g : gates_) {
    for (GateId& f : g.fanins) {
      if (f == from) f = to;
    }
  }
  finalized_ = false;
}

void Netlist::set_fanin(GateId gate, int pin, GateId driver) {
  SP_CHECK(gate < gates_.size() && driver < gates_.size(),
           "set_fanin: gate id out of range");
  SP_CHECK(pin >= 0 && static_cast<std::size_t>(pin) < gates_[gate].fanins.size(),
           "set_fanin: pin index out of range");
  gates_[gate].fanins[static_cast<std::size_t>(pin)] = driver;
  finalized_ = false;
}

void Netlist::permute_fanins(GateId gate, const std::vector<int>& perm) {
  SP_CHECK(gate < gates_.size(), "permute_fanins: gate id out of range");
  Gate& g = gates_[gate];
  SP_ASSERT(is_symmetric(g.type), "pin reordering on non-symmetric gate");
  SP_CHECK(perm.size() == g.fanins.size(),
           "permute_fanins: permutation size mismatch");
  std::vector<GateId> next(g.fanins.size());
  std::vector<bool> seen(g.fanins.size(), false);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const int src = perm[i];
    SP_CHECK(src >= 0 && static_cast<std::size_t>(src) < g.fanins.size() &&
                 !seen[static_cast<std::size_t>(src)],
             "permute_fanins: not a permutation");
    seen[static_cast<std::size_t>(src)] = true;
    next[i] = g.fanins[static_cast<std::size_t>(src)];
  }
  g.fanins = std::move(next);
  // A pin permutation of a symmetric gate preserves fanouts and levels;
  // no re-finalize required -- but the flat CSR row must track pin order.
  if (finalized_) {
    std::copy(g.fanins.begin(), g.fanins.end(),
              fanin_data_.begin() + fanin_offsets_[gate]);
  }
}

GateId Netlist::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidGate : it->second;
}

void Netlist::finalize() {
  validate_arity();
  compute_fanouts();
  compute_levels_and_topo();
  // Level-sort the topo order (ties by id). Every combinational edge
  // strictly increases level, so any level-sorted order is also a valid
  // topological order; sorting makes the sweep schedule deterministic and
  // lets cone evaluation reuse the same ordering invariant.
  std::sort(topo_.begin(), topo_.end(), [this](GateId a, GateId b) {
    return gates_[a].level != gates_[b].level ? gates_[a].level < gates_[b].level
                                              : a < b;
  });
  build_flat_views();
  finalized_ = true;
}

void Netlist::build_flat_views() {
  const std::size_t n = gates_.size();
  fanin_offsets_.assign(n + 1, 0);
  fanout_offsets_.assign(n + 1, 0);
  types_flat_.resize(n);
  levels_flat_.resize(n);
  std::size_t nin = 0, nout = 0;
  for (std::size_t i = 0; i < n; ++i) {
    nin += gates_[i].fanins.size();
    nout += gates_[i].fanouts.size();
  }
  fanin_data_.clear();
  fanin_data_.reserve(nin);
  fanout_data_.clear();
  fanout_data_.reserve(nout);
  for (std::size_t i = 0; i < n; ++i) {
    const Gate& g = gates_[i];
    fanin_data_.insert(fanin_data_.end(), g.fanins.begin(), g.fanins.end());
    fanin_offsets_[i + 1] = static_cast<std::uint32_t>(fanin_data_.size());
    fanout_data_.insert(fanout_data_.end(), g.fanouts.begin(), g.fanouts.end());
    fanout_offsets_[i + 1] = static_cast<std::uint32_t>(fanout_data_.size());
    types_flat_[i] = g.type;
    levels_flat_[i] = g.level;
  }
}

const std::vector<GateId>& Netlist::topo_order() const {
  SP_ASSERT(finalized_, "topo_order() requires finalize()");
  return topo_;
}

void Netlist::validate_arity() const {
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    for (GateId f : g.fanins) {
      SP_CHECK(f < gates_.size(),
               "gate " + g.name + " has a dangling fanin reference");
    }
    const int n = static_cast<int>(g.fanins.size());
    const int lo = min_fanins(g.type);
    const int hi = max_fanins(g.type);
    SP_CHECK(n >= lo && (hi == 0 || n <= hi),
             strprintf("gate %s (%s): illegal fanin count %d",
                       g.name.c_str(), gate_type_name(g.type), n));
  }
}

void Netlist::compute_fanouts() {
  for (Gate& g : gates_) g.fanouts.clear();
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    for (GateId f : gates_[i].fanins) {
      gates_[f].fanouts.push_back(static_cast<GateId>(i));
    }
  }
}

void Netlist::compute_levels_and_topo() {
  // Kahn's algorithm over the combinational graph. DFF outputs and PIs are
  // level-0 sources; DFF *D* pins are sinks (the edge D -> DFF is a
  // sequential edge and is not traversed).
  topo_.clear();
  depth_ = 0;
  std::vector<std::uint32_t> pending(gates_.size(), 0);
  std::queue<GateId> ready;
  std::size_t num_comb = 0;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    Gate& g = gates_[i];
    g.level = 0;
    if (!is_combinational(g.type)) continue;  // Input/Dff are sources
    ++num_comb;
    // Constants have no fanins, so they start ready, sit at level 0 and
    // are emitted into the topo order first; like every other gate they
    // release their fanouts when popped, so they count as dependencies.
    std::uint32_t deps = 0;
    for (GateId f : g.fanins) {
      if (is_combinational(gates_[f].type)) ++deps;
    }
    pending[i] = deps;
    if (deps == 0) ready.push(static_cast<GateId>(i));
  }
  while (!ready.empty()) {
    const GateId id = ready.front();
    ready.pop();
    Gate& g = gates_[id];
    std::uint32_t lvl = 0;
    for (GateId f : g.fanins) lvl = std::max(lvl, gates_[f].level + 1);
    if (g.type == GateType::Const0 || g.type == GateType::Const1) lvl = 0;
    g.level = lvl;
    depth_ = std::max(depth_, lvl);
    topo_.push_back(id);
    for (GateId fo : g.fanouts) {
      if (!is_combinational(gates_[fo].type)) continue;
      if (pending[fo] > 0 && --pending[fo] == 0) ready.push(fo);
    }
  }
  SP_CHECK(topo_.size() == num_comb,
           strprintf("netlist %s has a combinational cycle (%zu of %zu gates "
                     "levelized)",
                     name_.c_str(), topo_.size(), num_comb));
}

}  // namespace scanpower
