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
  const NetId id = static_cast<NetId>(net_names_.size());
  if (!net_ids_.emplace(name, id).second) {
    throw ConfigError("circuit: duplicate net name: " + name);
  }
  net_names_.push_back(name);
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
  // net's readers in gate order, so a gate range's readers of a net are one
  // contiguous run of its list.
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
  producer_.assign(net_names_.size(), 0);
  for (std::size_t i = 0; i < primary_inputs_.size(); ++i) {
    producer_[static_cast<std::size_t>(primary_inputs_[i])] =
        static_cast<std::uint32_t>(i);
  }
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    producer_[static_cast<std::size_t>(gates_[g].output)] =
        static_cast<std::uint32_t>(primary_inputs_.size() + g);
  }
  fanout_gates_ = gates_.size();
  blocks_ = structural_cut((gates_.size() + kGatesPerBlock - 1) /
                           kGatesPerBlock);
}

void Circuit::prepare_run(const std::vector<waveform::DigitalTrace>& stimuli,
                          double t_begin, double t_end, SimResult& run) const {
  CHARLIE_ASSERT(t_end > t_begin);
  CHARLIE_ASSERT_MSG(stimuli.size() == primary_inputs_.size(),
                     "circuit: one stimulus trace per primary input");
  // A larger previous circuit's extra traces are dropped. Nothing is
  // reserved per net: activity differs by orders of magnitude across nets,
  // so any stimulus-derived guess over-reserves most of them.
  std::vector<waveform::DigitalTrace>& traces = run.traces;
  traces.resize(n_nets());
  for (std::size_t i = 0; i < stimuli.size(); ++i) {
    const waveform::DigitalTrace& stimulus = stimuli[i];
    waveform::DigitalTrace& trace =
        traces[static_cast<std::size_t>(primary_inputs_[i])];
    trace.reset(stimulus.value_at(t_begin));
    for (const double t : stimulus.transitions()) {
      if (t > t_begin && t <= t_end) trace.append_transition(t);
    }
  }
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    std::array<bool, kMaxGateArity> in{};
    const std::span<const NetId> inputs = gate_inputs(g);
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      in[p] = traces[static_cast<std::size_t>(inputs[p])].initial_value();
    }
    traces[static_cast<std::size_t>(gates_[g].output)].reset(
        eval_gate(gates_[g].kind, in[0], in[1], in[2]));
  }
  run.n_events = 0;
  run.max_heap_depth = 0;
  run.equal_time_ties = 0;
  run.status = RunStatus::kOk;
  run.diagnostics = RunDiagnostics{};
  run.diagnostics.t_horizon = t_end;
}

std::vector<std::size_t> Circuit::structural_cut(std::size_t n_blocks) const {
  const std::size_t n_gates = gates_.size();
  const std::size_t n_parts = std::clamp<std::size_t>(
      n_blocks, 1, std::max<std::size_t>(n_gates, 1));
  if (n_parts == 1) return {0, n_gates};

  // A cut at gate p separates gates [0, p) from [p, n). Its cost is the
  // number of nets live across it: nets driven before p whose last reader
  // sits at or after p. Costs for every p come from one difference array
  // over the net live ranges; each of the K-1 cuts then takes the cheapest
  // position within a balance slack around its ideal (equal-count)
  // position.
  std::vector<int> last_use(n_gates, -1);
  for (std::size_t g = 0; g < n_gates; ++g) {
    for (const NetId net : gate_inputs(g)) {
      const std::uint32_t p = producer(net);
      if (p < n_inputs()) continue;
      int& last = last_use[p - n_inputs()];
      last = std::max(last, static_cast<int>(g));
    }
  }
  std::vector<int> live(n_gates + 1, 0);
  for (std::size_t d = 0; d < n_gates; ++d) {
    if (last_use[d] < 0) continue;  // output read by no gate
    ++live[d + 1];
    --live[static_cast<std::size_t>(last_use[d]) + 1];
  }
  for (std::size_t p = 1; p <= n_gates; ++p) live[p] += live[p - 1];

  std::vector<std::size_t> cut(n_parts + 1, 0);
  cut[n_parts] = n_gates;
  const std::size_t slack =
      std::max<std::size_t>(1, n_gates / (4 * n_parts));
  for (std::size_t i = 1; i < n_parts; ++i) {
    const std::size_t ideal = i * n_gates / n_parts;
    // Every block keeps at least one gate: cut i stays in
    // [cut[i-1] + 1, n_gates - (n_parts - i)].
    const std::size_t floor_p = cut[i - 1] + 1;
    const std::size_t ceil_p = n_gates - (n_parts - i);
    std::size_t lo = std::max(floor_p, ideal > slack ? ideal - slack : 1);
    std::size_t hi = std::min(ceil_p, ideal + slack);
    if (lo > hi) {
      lo = hi = std::clamp(ideal, floor_p, ceil_p);
    }
    std::size_t best = lo;
    for (std::size_t p = lo; p <= hi; ++p) {
      const auto distance = [&](std::size_t q) {
        return q > ideal ? q - ideal : ideal - q;
      };
      if (live[p] < live[best] ||
          (live[p] == live[best] && distance(p) < distance(best))) {
        best = p;
      }
    }
    cut[i] = best;
  }
  return cut;
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
  SimResult result;
  SimSession::Scratch scratch;
  SimSession::run_blocks(*this, stimuli, t_begin, t_end, budget, result,
                         scratch);
  return result;
}

}  // namespace charlie::sim
