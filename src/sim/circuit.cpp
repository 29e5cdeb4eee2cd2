#include "sim/circuit.hpp"

#include <algorithm>

#include "sim/sim_session.hpp"
#include "util/error.hpp"

namespace charlie::sim {

bool eval_gate(GateKind kind, std::span<const bool> in) {
  const std::size_t arity = gate_arity(kind);
  CHARLIE_ASSERT(in.size() == arity);
  return eval_gate(kind, in[0], arity >= 2 ? in[1] : false,
                   arity >= 3 ? in[2] : false);
}

Circuit::NetId Circuit::new_net(const std::string& name) {
  if (net_ids_.count(name) > 0) {
    throw ConfigError("circuit: duplicate net name: " + name);
  }
  const NetId id = static_cast<NetId>(net_names_.size());
  net_names_.push_back(name);
  net_ids_[name] = id;
  return id;
}

Circuit::NetId Circuit::add_input(const std::string& name) {
  const NetId id = new_net(name);
  primary_inputs_.push_back(id);
  return id;
}

Circuit::Gate& Circuit::new_gate(GateKind kind,
                                 const std::string& output_name,
                                 const std::vector<NetId>& inputs) {
  CHARLIE_ASSERT_MSG(inputs.size() == gate_arity(kind),
                     "circuit: wrong gate arity");
  // Inputs must name existing nets, checked before the output net exists:
  // a gate cannot read its own output, so construction order stays a
  // strict topological order (the engine is combinational-only).
  for (const NetId net : inputs) {
    CHARLIE_ASSERT(net >= 0 && net < static_cast<NetId>(n_nets()));
  }
  CHARLIE_ASSERT_MSG(gates_.size() < (std::size_t{1} << 31),
                     "circuit: too many gates");
  const NetId out = new_net(output_name);
  Gate& gate = gates_.emplace_back();
  gate.kind = kind;
  gate.arity = static_cast<std::uint8_t>(inputs.size());
  gate.output = out;
  std::array<NetId, kMaxGateArity>& cold = gate_inputs_.emplace_back();
  cold.fill(-1);
  std::copy(inputs.begin(), inputs.end(), cold.begin());
  return gate;
}

Circuit::NetId Circuit::add_gate(GateKind kind,
                                 const std::string& output_name,
                                 std::vector<NetId> inputs,
                                 std::unique_ptr<SisChannel> channel) {
  CHARLIE_ASSERT(channel != nullptr);
  Gate& gate = new_gate(kind, output_name, inputs);
  if (auto* inertial = dynamic_cast<InertialChannel*>(channel.get())) {
    gate.tag = ChannelTag::kInertial;
    gate.channel = static_cast<std::uint32_t>(inertial_.size());
    inertial_.push_back(std::move(*inertial));
  } else if (auto* wire = dynamic_cast<WireChannel*>(channel.get())) {
    gate.tag = ChannelTag::kWire;
    gate.channel = static_cast<std::uint32_t>(wire_.size());
    wire_.push_back(std::move(*wire));
  } else {
    gate.channel = static_cast<std::uint32_t>(boxed_.size());
    boxed_.push_back({std::move(channel), nullptr});
  }
  return gate.output;
}

Circuit::NetId Circuit::add_mis_gate(GateKind kind,
                                     const std::string& output_name,
                                     std::vector<NetId> inputs,
                                     std::unique_ptr<GateChannel> channel) {
  CHARLIE_ASSERT(channel != nullptr);
  CHARLIE_ASSERT_MSG(
      channel->n_inputs() == static_cast<int>(gate_arity(kind)),
      "circuit: channel arity does not match the gate kind");
  Gate& gate = new_gate(kind, output_name, inputs);
  if (auto* hybrid = dynamic_cast<HybridGateChannel*>(channel.get())) {
    gate.tag = ChannelTag::kHybrid;
    gate.channel = static_cast<std::uint32_t>(hybrid_.size());
    hybrid_.push_back(std::move(*hybrid));
  } else {
    gate.channel = static_cast<std::uint32_t>(boxed_.size());
    boxed_.push_back({nullptr, std::move(channel)});
  }
  return gate.output;
}

void Circuit::reserve(std::size_t n_nets, std::size_t n_hybrid,
                      std::size_t n_inertial, std::size_t n_wire) {
  const std::size_t n_gates = n_hybrid + n_inertial + n_wire;
  net_names_.reserve(n_nets);
  net_ids_.reserve(n_nets);
  gates_.reserve(n_gates);
  gate_inputs_.reserve(n_gates);
  hybrid_.reserve(n_hybrid);
  inertial_.reserve(n_inertial);
  wire_.reserve(n_wire);
}

void Circuit::finish_fanout() {
  if (fanout_gates_ == gates_.size() &&
      fanout_begin_.size() == net_names_.size() + 1) {
    return;
  }
  // Count, prefix-sum, fill: walking gates in order, then ports, gives each
  // net's readers in gate order -- the order the engine visits fanout in,
  // which fixes the heap's sequence numbers and equal-time tie-breaks.
  fanout_begin_.assign(net_names_.size() + 1, 0);
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    for (const NetId net : gate_inputs(g)) {
      ++fanout_begin_[static_cast<std::size_t>(net) + 1];
    }
  }
  for (std::size_t n = 1; n < fanout_begin_.size(); ++n) {
    fanout_begin_[n] += fanout_begin_[n - 1];
  }
  fanout_.resize(fanout_begin_.back());
  std::vector<std::uint32_t> next(fanout_begin_.begin(),
                                  fanout_begin_.end() - 1);
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    const std::span<const NetId> inputs = gate_inputs(g);
    for (std::size_t port = 0; port < inputs.size(); ++port) {
      fanout_[next[static_cast<std::size_t>(inputs[port])]++] = {
          static_cast<std::uint32_t>(g), static_cast<std::uint32_t>(port)};
    }
  }
  fanout_gates_ = gates_.size();
}

Circuit::NetId Circuit::find_net(const std::string& name) const {
  const auto it = net_ids_.find(name);
  if (it == net_ids_.end()) throw ConfigError("circuit: unknown net " + name);
  return it->second;
}

const std::string& Circuit::net_name(NetId id) const {
  CHARLIE_ASSERT(id >= 0 && id < static_cast<NetId>(n_nets()));
  return net_names_[static_cast<std::size_t>(id)];
}

const waveform::DigitalTrace& Circuit::SimResult::trace(NetId id) const {
  CHARLIE_ASSERT(id >= 0 && id < static_cast<NetId>(traces.size()));
  return traces[static_cast<std::size_t>(id)];
}

Circuit::SimResult Circuit::simulate(
    const std::vector<waveform::DigitalTrace>& stimuli, double t_begin,
    double t_end, const RunBudget& budget) {
  CHARLIE_ASSERT(t_end > t_begin);
  // The whole window in one advance: reproduces the original single-pass
  // engine bit-for-bit (see sim/sim_session.hpp).
  SimSession session(*this, 0, n_gates(), stimuli, t_begin, budget);
  session.advance(t_end);
  return session.take_result();
}

}  // namespace charlie::sim
