// Static arc extraction: SIS arcs are the characterized inertial delays,
// hybrid arcs are the conservative characteristic envelope plus the pure
// delay, wire arcs are the settled-line step crossing, all in one flat
// per-pin layout with corner arcs taken per cell -- and the envelope
// really does bound staggered-arrival crossings of the underlying model.
#include "sta/arc_delays.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "core/gate_delay.hpp"
#include "core/process_point.hpp"
#include "sim/circuit_builder.hpp"
#include "sta/timing_graph.hpp"
#include "wire/wire_tables.hpp"

namespace charlie::sta {
namespace {

std::shared_ptr<const cell::CellLibrary> reference_library() {
  static const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  return library;
}

TEST(ArcTable, SisCellsCarryTheCharacterizedDelaysOnEveryPin) {
  const auto library = reference_library();
  for (const char* name : {"INV", "BUF", "AND2", "OR2", "XOR2"}) {
    const cell::CellSpec* spec = library->find(name);
    ASSERT_NE(spec, nullptr) << name;
    ASSERT_FALSE(spec->hybrid) << name;
    const cell::CellArcTable arcs = spec->arc_table();
    ASSERT_EQ(arcs.output_rise.size(), static_cast<std::size_t>(spec->arity));
    ASSERT_EQ(arcs.output_fall.size(), static_cast<std::size_t>(spec->arity));
    for (int pin = 0; pin < spec->arity; ++pin) {
      EXPECT_DOUBLE_EQ(arcs.output_rise[pin], spec->rise_delay) << name;
      EXPECT_DOUBLE_EQ(arcs.output_fall[pin], spec->fall_delay) << name;
    }
  }
}

TEST(ArcTable, HybridEnvelopeDominatesEveryCharacteristicDelay) {
  const auto library = reference_library();
  for (const char* name : {"NOR2", "NAND2", "NOR3", "NAND3"}) {
    const cell::CellSpec* spec = library->find(name);
    ASSERT_NE(spec, nullptr) << name;
    ASSERT_TRUE(spec->hybrid) << name;
    const cell::CellArcTable arcs = spec->arc_table();
    const core::GateSisDelays sis =
        core::gate_characteristic_delays(*spec->tables);
    const double delta = spec->params.delta_min;
    ASSERT_EQ(arcs.output_rise.size(), static_cast<std::size_t>(spec->arity));
    for (int pin = 0; pin < spec->arity; ++pin) {
      const auto p = static_cast<std::size_t>(pin);
      // Per pin: envelope >= that pin's single-switch delay and >= the
      // all-simultaneous delay, each plus the pure delay delta_min.
      EXPECT_GE(arcs.output_rise[p], sis.rise[p] + delta - 1e-18) << name;
      EXPECT_GE(arcs.output_fall[p], sis.fall[p] + delta - 1e-18) << name;
      EXPECT_GE(arcs.output_rise[p], sis.rise_all + delta - 1e-18) << name;
      EXPECT_GE(arcs.output_fall[p], sis.fall_all + delta - 1e-18) << name;
      // And it is tight: exactly the max of the two regimes.
      EXPECT_NEAR(arcs.output_rise[p],
                  std::max(sis.rise[p], sis.rise_all) + delta, 1e-18) << name;
      EXPECT_NEAR(arcs.output_fall[p],
                  std::max(sis.fall[p], sis.fall_all) + delta, 1e-18) << name;
    }
  }
}

// The path-level conservatism claim behind the whole analyzer: for ANY
// staggered input schedule, the model's output crossing is no later than
// max_i (t_i + arc_i). Exercised on the raw mode tables (delta_min applies
// identically to both sides, so it cancels).
TEST(ArcEnvelope, BoundsStaggeredNor2Crossings) {
  const cell::CellSpec* spec = reference_library()->find("NOR2");
  ASSERT_NE(spec, nullptr);
  const core::GateModeTables& tables = *spec->tables;
  const core::GateArcEnvelope env = core::gate_arc_envelope(tables);
  for (double hold : {0.0, tables.default_hold()}) {
    for (double delta : {0.0, 5e-12, 20e-12, 60e-12, 150e-12}) {
      // Falling: inputs rise staggered from the (0,0) steady state.
      {
        const core::GateInputEvent events[] = {{0.0, 0, true},
                                               {delta, 1, true}};
        const double t = core::gate_output_crossing(tables, 0u, hold, events,
                                                    /*rising=*/false);
        const double bound = std::max(env.fall[0], delta + env.fall[1]);
        EXPECT_LE(t, bound + 1e-15) << "delta=" << delta << " hold=" << hold;
      }
      // Rising: inputs fall staggered from the (1,1) steady state.
      {
        const core::GateInputEvent events[] = {{0.0, 0, false},
                                               {delta, 1, false}};
        const double t = core::gate_output_crossing(tables, 3u, hold, events,
                                                    /*rising=*/true);
        const double bound = std::max(env.rise[0], delta + env.rise[1]);
        EXPECT_LE(t, bound + 1e-15) << "delta=" << delta << " hold=" << hold;
      }
    }
  }
}

TEST(ArcEnvelope, BoundsStaggeredNand3Crossings) {
  const cell::CellSpec* spec = reference_library()->find("NAND3");
  ASSERT_NE(spec, nullptr);
  const core::GateModeTables& tables = *spec->tables;
  const core::GateArcEnvelope env = core::gate_arc_envelope(tables);
  // All three inputs rise staggered: output falls once the series stack
  // conducts (after the last arrival).
  for (double hold : {0.0, tables.default_hold()}) {
    const double t0 = 0.0;
    const double t1 = 12e-12;
    const double t2 = 47e-12;
    const core::GateInputEvent events[] = {
        {t0, 0, true}, {t1, 1, true}, {t2, 2, true}};
    const double t = core::gate_output_crossing(tables, 0u, hold, events,
                                                /*rising=*/false);
    const double bound = std::max(
        {t0 + env.fall[0], t1 + env.fall[1], t2 + env.fall[2]});
    EXPECT_LE(t, bound + 1e-15) << "hold=" << hold;
  }
}

TEST(WireArcs, NearSinglePoleStepDelayIsLn2TimesTheTimeConstant) {
  // A negligible line behind a dominant driver pole: b2 -> 0 and the
  // second-order Pade model collapses to V(t) = 1 - exp(-t/b1), whose
  // VDD/2 crossing is b1 ln 2.
  wire::WireParams params;
  params.r_total = 1e-3;
  params.c_total = 1e-18;
  params.n_sections = 1;
  params.r_drive = 1000.0;
  params.c_load = 10e-15;
  params.t_drive = 0.0;
  const wire::WireModeTables tables(params);
  ASSERT_LT(tables.b2(), 1e-3 * tables.b1() * tables.b1());
  const double expected = tables.b1() * std::log(2.0);
  EXPECT_NEAR(tables.step_delay(true), expected, 0.02 * expected);
  EXPECT_NEAR(tables.step_delay(false), expected, 0.02 * expected);
}

TEST(WireArcs, DriveShapeCorrectionAddsToTheStepDelay) {
  wire::WireParams slow;
  slow.r_total = 200.0;
  slow.c_total = 50e-15;
  slow.n_sections = 8;
  slow.t_drive = 20e-12;
  wire::WireParams ideal = slow;
  ideal.t_drive = 0.0;
  const wire::WireModeTables with_drive(slow);
  const wire::WireModeTables step(ideal);
  const double correction = (1.0 - std::log(2.0)) * slow.t_drive;
  EXPECT_NEAR(with_drive.step_delay(true),
              step.step_delay(true) + correction, 1e-15);
  EXPECT_NEAR(with_drive.drive_delay(), correction, 1e-15);
}

// Element e's arcs in one direction, pin order.
std::vector<double> element_arcs(const ArcSet& arcs, std::size_t e,
                                 bool rising) {
  const std::vector<double>& all = rising ? arcs.rise : arcs.fall;
  return {all.begin() + static_cast<std::ptrdiff_t>(arcs.offsets[e]),
          all.begin() + static_cast<std::ptrdiff_t>(arcs.offsets[e + 1])};
}

const cell::NetlistDesc& gate_gate_wire_netlist() {
  static const cell::NetlistDesc desc = cell::parse_netlist(
      "input(a, b, c)\n"
      "NOR2(x, a, b)\n"
      "AND2(y, x, c)\n"
      "WIRE(z, y, r=200, c=50e-15, tdrive=10e-12)\n"
      "output(z)\n");
  return desc;
}

TEST(ExtractArcs, UnifiedElementOrderGatesFirstThenWires) {
  const cell::NetlistDesc& desc = gate_gate_wire_netlist();
  const auto library = reference_library();
  const TimingGraph graph(desc, library);
  const ArcSet& arcs = graph.nominal_arcs();
  ASSERT_EQ(arcs.n_elements(), 3u);
  // One arc per input pin: NOR2 2, AND2 2, wire 1.
  EXPECT_EQ(arcs.offsets, (std::vector<std::size_t>{0, 2, 4, 5}));
  ASSERT_EQ(arcs.rise.size(), 5u);
  ASSERT_EQ(arcs.fall.size(), 5u);

  const cell::CellArcTable nor2 = library->find("NOR2")->arc_table();
  const cell::CellArcTable and2 = library->find("AND2")->arc_table();
  EXPECT_EQ(element_arcs(arcs, 0, true), nor2.output_rise);
  EXPECT_EQ(element_arcs(arcs, 0, false), nor2.output_fall);
  EXPECT_EQ(element_arcs(arcs, 1, true), and2.output_rise);
  EXPECT_EQ(element_arcs(arcs, 1, false), and2.output_fall);

  const sim::CircuitBuilder builder(library);
  const auto wire_tables = builder.wire_tables(desc.wires[0]);
  EXPECT_DOUBLE_EQ(arcs.rise[arcs.offsets[2]], wire_tables->step_delay(true));
  EXPECT_DOUBLE_EQ(arcs.fall[arcs.offsets[2]], wire_tables->step_delay(false));
  EXPECT_GT(arcs.rise[arcs.offsets[2]], 0.0);
}

// Corner arcs are the corner library's per-cell tables on every instance,
// and the nominal wire arcs (wires are process-independent).
TEST(ExtractArcs, CornerArcsArePerCellTablesAndNominalWires) {
  const cell::NetlistDesc& desc = gate_gate_wire_netlist();
  const auto library = reference_library();
  const TimingGraph graph(desc, library);
  core::ProcessPoint point = core::ProcessPoint::nominal();
  point.vdd_scale = 0.93;
  point.vth_shift = 0.02;
  point.drive_scale = 1.04;
  const ArcSet arcs = graph.arcs_at(point);
  EXPECT_EQ(arcs.offsets, graph.nominal_arcs().offsets);

  const cell::CellLibrary corner = library->at_corner(point);
  const cell::CellArcTable nor2 = corner.spec("NOR2").arc_table();
  const cell::CellArcTable and2 = corner.spec("AND2").arc_table();
  EXPECT_EQ(element_arcs(arcs, 0, true), nor2.output_rise);
  EXPECT_EQ(element_arcs(arcs, 0, false), nor2.output_fall);
  EXPECT_EQ(element_arcs(arcs, 1, true), and2.output_rise);
  EXPECT_EQ(element_arcs(arcs, 1, false), and2.output_fall);
  EXPECT_NE(element_arcs(arcs, 0, true),
            element_arcs(graph.nominal_arcs(), 0, true));
  EXPECT_EQ(element_arcs(arcs, 2, true),
            element_arcs(graph.nominal_arcs(), 2, true));
  EXPECT_EQ(element_arcs(arcs, 2, false),
            element_arcs(graph.nominal_arcs(), 2, false));
}

}  // namespace
}  // namespace charlie::sta
