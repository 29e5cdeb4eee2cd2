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
  fanout_.emplace_back();
  return id;
}

Circuit::NetId Circuit::add_input(const std::string& name) {
  const NetId id = new_net(name);
  primary_inputs_.push_back(id);
  return id;
}

Circuit::NetId Circuit::add_gate(GateKind kind,
                                 const std::string& output_name,
                                 std::vector<NetId> inputs,
                                 std::unique_ptr<SisChannel> channel) {
  CHARLIE_ASSERT(channel != nullptr);
  CHARLIE_ASSERT_MSG(inputs.size() == gate_arity(kind),
                     "circuit: wrong gate arity");
  const NetId out = new_net(output_name);
  Gate gate;
  gate.kind = kind;
  gate.inputs = std::move(inputs);
  gate.output = out;
  gate.sis = std::move(channel);
  const std::size_t index = gates_.size();
  for (std::size_t port = 0; port < gate.inputs.size(); ++port) {
    CHARLIE_ASSERT(gate.inputs[port] >= 0 &&
                   gate.inputs[port] < static_cast<NetId>(n_nets()));
    fanout_[gate.inputs[port]].push_back({index, static_cast<int>(port)});
  }
  gates_.push_back(std::move(gate));
  return out;
}

Circuit::NetId Circuit::add_mis_gate(GateKind kind,
                                     const std::string& output_name,
                                     std::vector<NetId> inputs,
                                     std::unique_ptr<GateChannel> channel) {
  CHARLIE_ASSERT(channel != nullptr);
  CHARLIE_ASSERT_MSG(inputs.size() == gate_arity(kind),
                     "circuit: wrong gate arity");
  CHARLIE_ASSERT_MSG(
      channel->n_inputs() == static_cast<int>(gate_arity(kind)),
      "circuit: channel arity does not match the gate kind");
  const NetId out = new_net(output_name);
  Gate gate;
  gate.kind = kind;
  gate.inputs = std::move(inputs);
  gate.output = out;
  gate.mis = std::move(channel);
  const std::size_t index = gates_.size();
  for (std::size_t port = 0; port < gate.inputs.size(); ++port) {
    CHARLIE_ASSERT(gate.inputs[port] >= 0 &&
                   gate.inputs[port] < static_cast<NetId>(n_nets()));
    fanout_[gate.inputs[port]].push_back({index, static_cast<int>(port)});
  }
  gates_.push_back(std::move(gate));
  return out;
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
