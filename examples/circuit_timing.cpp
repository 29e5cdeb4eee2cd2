// Multi-gate digital timing simulation with MIS-aware channels, built
// through the cell-library front-end: the classic MUX glitch circuit and a
// marginal-pulse sweep, comparing channel models on glitch behaviour.
//
//   sel ----------------+----------------.
//                       |                 NOR2 (y1)
//   a ---- INV ---- na --+--- NOR2 (x1) --'
//
// With a = sel switching together, reconvergent paths create glitch
// hazards whose propagation depends on the delay model.
//
// Circuits come from a structural netlist (docs/netlist_format.md) via
// sim::CircuitBuilder against CellLibrary::reference() -- the Table-I
// paper-regime cells, no substrate characterization at startup. The
// inverter delay sweep overrides the library's INV spec per iteration
// (CellLibrary::set_sis_delays); the inertial baseline shows the legacy
// hand-wired Circuit::add_gate path for contrast.
//
//   $ ./examples/circuit_timing
#include <iostream>
#include <memory>

#include "cell/cell_library.hpp"
#include "sim/circuit.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/inertial.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

// in -> INV -> ninv; x = NOR(in, ninv); y = NOR(x, in). The INV + NOR
// reconvergence generates a hazard on x when `in` rises.
constexpr const char* kGlitchNetlist = R"(
input(in)
INV(ninv, in)
NOR2(x, in, ninv)
NOR2(y, x, in)
)";

}  // namespace

int main() {
  using namespace charlie;

  auto build = [&](bool mis_aware, double inv_delay) {
    if (mis_aware) {
      cell::CellLibrary library = cell::CellLibrary::reference();
      library.set_sis_delays("INV", inv_delay, inv_delay);
      return sim::CircuitBuilder(library).build_text(kGlitchNetlist);
    }
    // Legacy path: the same topology hand-wired gate by gate with SIS
    // inertial channels (what every circuit looked like before the
    // cell-library front-end).
    auto c = std::make_unique<sim::Circuit>();
    const auto in = c->add_input("in");
    const auto ninv =
        c->add_gate(sim::GateKind::kInv, "ninv", {in},
                    std::make_unique<sim::InertialChannel>(inv_delay,
                                                           inv_delay));
    const auto x =
        c->add_gate(sim::GateKind::kNor2, "x", {in, ninv},
                    std::make_unique<sim::InertialChannel>(53e-12, 39e-12));
    c->add_gate(sim::GateKind::kNor2, "y", {x, in},
                std::make_unique<sim::InertialChannel>(53e-12, 39e-12));
    return c;
  };

  const waveform::DigitalTrace stimulus(false, {1e-9, 3e-9});
  util::TextTable table({"model", "inv delay [ps]", "x transitions",
                         "y transitions"});
  for (const double inv_delay : {15e-12, 60e-12, 120e-12}) {
    for (const bool mis : {false, true}) {
      auto c = build(mis, inv_delay);
      const auto result = c->simulate({stimulus}, 0.0, 5e-9);
      if (!result.ok()) {
        std::cerr << "circuit_timing: " << result.diagnostics.summary() << "\n";
        return 1;
      }
      table.add_row(
          {mis ? "hybrid (MIS-aware)" : "inertial",
           util::fmt(inv_delay / units::ps, 0),
           std::to_string(result.trace(c->find_net("x")).n_transitions()),
           std::to_string(result.trace(c->find_net("y")).n_transitions())});
    }
  }
  table.print(std::cout);

  std::cout
      << "\nReading the table:\n"
      << "  * With a short inverter delay the hazard pulse on x is brief:\n"
      << "    both channel types suppress it (glitch cancellation).\n"
      << "  * As the inverter slows down, the hazard widens until it\n"
      << "    propagates; the MIS-aware channel resolves the marginal\n"
      << "    cases with analog fidelity (its cancellation threshold\n"
      << "    emerges from the ODE trajectory, not from a fixed pulse\n"
      << "    width).\n";

  // Show the exact marginal-pulse behaviour of the hybrid channel. One
  // builder, one parsed netlist, one circuit per sweep point: the library's
  // NOR2 mode tables are derived once and shared by every instantiation.
  std::cout << "\nMarginal pulse sweep on a single MIS-aware NOR "
               "(B pulses high for w ps):\n";
  const sim::CircuitBuilder builder(cell::CellLibrary::reference());
  const auto nor_desc = cell::parse_netlist("input(a, b)\nNOR2(out, a, b)\n");
  util::TextTable sweep({"pulse width [ps]", "output transitions"});
  for (double w_ps : {5.0, 10.0, 15.0, 20.0, 30.0, 60.0}) {
    const auto c = builder.build(nor_desc);
    const waveform::DigitalTrace quiet(false, {});
    const waveform::DigitalTrace pulse(
        false, {1e-9, 1e-9 + w_ps * units::ps});
    const auto r = c->simulate({quiet, pulse}, 0.0, 3e-9);
    if (!r.ok()) {
      std::cerr << "circuit_timing: " << r.diagnostics.summary() << "\n";
      return 1;
    }
    sweep.add_row({util::fmt(w_ps, 0),
                   std::to_string(
                       r.trace(c->find_net("out")).n_transitions())});
  }
  sweep.print(std::cout);
  std::cout << "(short pulses vanish, long ones pass -- the inertial-like "
               "filtering arises\n from the hybrid trajectories "
               "themselves)\n";
  return 0;
}
