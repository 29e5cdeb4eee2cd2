// The interconnect subsystem end to end: the collapsed hybrid wire against
// the full-ladder SPICE golden (spice::build_rc_line), a transistor-level
// driver -> wire -> receiver handoff chain, the Fig-7-style deviation-area
// ranking (hybrid wire < inertial lumped load), and netlist-level wiring
// through CircuitBuilder + BatchRunner.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "cell/cell_library.hpp"
#include "sim/accuracy.hpp"
#include "sim/batch_runner.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/inertial.hpp"
#include "sim/pure_delay.hpp"
#include "sim/run_channel.hpp"
#include "sim/wire_channel.hpp"
#include "spice/characterize.hpp"
#include "spice/rc_line.hpp"
#include "util/error.hpp"
#include "waveform/digitize.hpp"
#include "waveform/edges.hpp"

namespace charlie {
namespace {

wire::WireParams test_wire() {
  wire::WireParams p = wire::WireParams::reference();
  return p;
}

spice::RcLineSpec spec_of(const wire::WireParams& p) {
  spice::RcLineSpec spec;
  spec.r_total = p.r_total;
  spec.c_total = p.c_total;
  spec.n_sections = p.n_sections;
  spec.r_drive = p.r_drive;
  spec.c_load = p.c_load;
  spec.vdd = p.vdd;
  return spec;
}

spice::TransientOptions tight_transient() {
  spice::TransientOptions opts;
  opts.v_abstol = 1e-6;
  opts.v_reltol = 1e-6;
  return opts;
}

TEST(WireInterconnect, StepCrossingsMatchTheFullLadderGolden) {
  // Near-step drive isolates the collapse error: the model's V_th
  // crossings must match the full N-section SPICE ladder within the
  // gate-tolerance regime (single-digit ps on a ~60 ps Elmore wire).
  const wire::WireParams p = test_wire();
  const auto tables = wire::WireModeTables::make(p);
  const waveform::DigitalTrace drive(false, {100e-12, 700e-12});
  const auto golden_analog =
      spice::run_rc_line(spec_of(p), drive, 1e-12, 1.5e-9, tight_transient());
  const auto golden = waveform::digitize(golden_analog.vout, p.vth());

  sim::WireChannel channel(tables);
  const auto out = sim::run_sis_channel(channel, drive, 0.0, 1.5e-9);

  ASSERT_EQ(golden.n_transitions(), 2u);
  ASSERT_EQ(out.n_transitions(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_NEAR(out.transitions()[k], golden.transitions()[k], 2e-12)
        << "crossing " << k;
  }
}

TEST(WireInterconnect, CollapseErrorStaysSmallAcrossAnRcSweep) {
  // The collapse must track the full ladder over a geometry sweep, not
  // just the reference point: crossing error under 5% of the Elmore delay.
  for (double scale : {0.5, 1.0, 2.0}) {
    for (double drive_scale : {0.0, 1.0, 3.0}) {
      wire::WireParams p = test_wire();
      p.r_total *= scale;
      p.c_total *= scale;
      p.r_drive *= drive_scale;
      const auto tables = wire::WireModeTables::make(p);
      const double elmore = tables->elmore_delay();
      const waveform::DigitalTrace drive(false, {100e-12});
      const double t_end = 100e-12 + 30.0 * elmore;
      const auto golden_analog = spice::run_rc_line(
          spec_of(p), drive, 1e-12, t_end, tight_transient());
      const auto golden = waveform::digitize(golden_analog.vout, p.vth());
      sim::WireChannel channel(tables);
      const auto out = sim::run_sis_channel(channel, drive, 0.0, t_end);
      ASSERT_EQ(golden.n_transitions(), 1u)
          << "scale=" << scale << " drive=" << drive_scale;
      ASSERT_EQ(out.n_transitions(), 1u)
          << "scale=" << scale << " drive=" << drive_scale;
      EXPECT_NEAR(out.transitions()[0], golden.transitions()[0],
                  0.05 * elmore)
          << "scale=" << scale << " drive=" << drive_scale;
    }
  }
}

TEST(WireInterconnect, DriverWireReceiverChainTracksTheAnalogHandoff) {
  // Full handoff chain: a transistor-level NOR2 drives the full ladder
  // (its analog output is the ladder's source); the hybrid chain sees only
  // the digitized NOR2 output yet must reproduce the wire's far-end
  // crossings -- the receiver's mode-switch times -- to a few ps.
  const auto tech = spice::Technology::freepdk15_like();
  wire::WireParams p = test_wire();

  // Analog truth: NOR2 transient, then its vo waveform drives the ladder.
  const double t_end = 1.2e-9;
  std::vector<waveform::DigitalTrace> in;
  in.emplace_back(false, std::vector<double>{100e-12, 600e-12});
  in.emplace_back(false, std::vector<double>{});
  const auto gate =
      spice::run_gate_cell(tech, spice::CellKind::kNor2, in, t_end,
                           tight_transient());
  spice::Netlist ladder;
  const auto nodes = spice::build_rc_line(ladder, spec_of(p));
  ladder.add_vsource_pwl(nodes.in, spice::kGround, gate.vo);
  spice::TransientOptions opts = tight_transient();
  opts.t_end = t_end;
  const auto golden_tr = spice::transient_analysis(
      ladder, {ladder.node_name(nodes.out)}, opts);
  const auto golden = waveform::digitize(
      golden_tr.wave(ladder.node_name(nodes.out)), p.vth());

  // Drive-shape handoff: estimate the driver's output edge time constant
  // from the 50% -> 75%-swing crossing gap (exponential edge: gap =
  // tau ln 2) of both edges; the wire model turns it into the first-moment
  // centroid correction.
  const auto at_half = waveform::digitize(gate.vo, 0.5 * tech.vdd);
  const auto at_low = waveform::digitize(gate.vo, 0.25 * tech.vdd);
  const auto at_high = waveform::digitize(gate.vo, 0.75 * tech.vdd);
  ASSERT_GE(at_half.n_transitions(), 2u);
  const double tau_fall =
      (at_low.transitions()[0] - at_half.transitions()[0]) / std::log(2.0);
  const double tau_rise =
      (at_high.transitions()[1] - at_half.transitions()[1]) / std::log(2.0);
  EXPECT_GT(tau_fall, 0.0);
  EXPECT_GT(tau_rise, 0.0);
  p.t_drive = 0.5 * (tau_fall + tau_rise);

  // Hybrid chain: the digitized driver output switches the wire's drive
  // state (the analog handoff point under test).
  const auto driver_digital = waveform::digitize(gate.vo, tech.vth());
  sim::WireChannel channel(wire::WireModeTables::make(p));
  const auto out = sim::run_sis_channel(channel, driver_digital, 0.0, t_end);

  ASSERT_EQ(golden.n_transitions(), out.n_transitions());
  ASSERT_GE(out.n_transitions(), 2u);
  for (std::size_t k = 0; k < out.n_transitions(); ++k) {
    EXPECT_NEAR(out.transitions()[k], golden.transitions()[k], 5e-12)
        << "crossing " << k;
  }
}

TEST(WireInterconnect, HybridWireBeatsInertialLumpedLoadOnDeviationArea) {
  // The Fig-7-style experiment: on random traces whose pulse widths are
  // comparable to the wire delay, the hybrid wire channel's deviation area
  // against the full-ladder golden must be strictly below the inertial
  // lumped-load baseline -- on every geometry of a small RC sweep.
  for (double scale : {1.0, 2.0}) {
    wire::WireParams p = test_wire();
    p.r_total *= scale;
    p.c_total *= scale;
    const auto tables = wire::WireModeTables::make(p);
    const double elmore = tables->elmore_delay();

    std::vector<sim::WireModelUnderTest> models;
    models.push_back({"hybrid-wire",
                      [&] { return std::make_unique<sim::WireChannel>(tables); },
                      false});
    models.push_back({"inertial-lumped",
                      [&] {
                        return std::make_unique<sim::InertialChannel>(elmore,
                                                                      elmore);
                      },
                      true});
    models.push_back({"pure-delay",
                      [&] {
                        return std::make_unique<sim::PureDelayChannel>(elmore);
                      },
                      false});

    waveform::TraceConfig config;
    config.mu = 3.0 * elmore;  // heavy short-pulse content vs the wire RC
    config.sigma = 1.5 * elmore;
    config.n_transitions = 30;

    sim::WireAccuracyOptions options;
    options.repetitions = 2;
    const auto result =
        sim::evaluate_wire_accuracy(p, config, models, options);

    ASSERT_EQ(result.models.size(), 3u);
    const auto& hybrid = result.models[0];
    const auto& inertial = result.models[1];
    EXPECT_GT(result.golden_transitions, 0);
    EXPECT_EQ(inertial.normalized, 1.0);
    EXPECT_LT(hybrid.normalized, 1.0)
        << "hybrid must beat the inertial lumped-load baseline (scale="
        << scale << ")";
    EXPECT_GT(hybrid.mean_area, 0.0);
  }
}

TEST(WireInterconnect, NetlistWiresBuildAndDelayTheChain) {
  const auto lib = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const sim::CircuitBuilder builder(lib);
  const char* with_wire =
      "input(a, b)\n"
      "output(y)\n"
      "NOR2(n0, a, b)\n"
      "WIRE(n0w, n0, r=15e3, c=3e-15, sections=8, rdrive=10e3, "
      "cload=300e-18)\n"
      "INV(y, n0w)\n";
  const char* without_wire =
      "input(a, b)\n"
      "output(y)\n"
      "NOR2(n0, a, b)\n"
      "INV(y, n0)\n";
  const auto wired = builder.build_text(with_wire);
  const auto plain = builder.build_text(without_wire);
  EXPECT_EQ(builder.n_wire_tables(), 1u);

  std::vector<waveform::DigitalTrace> stim;
  stim.emplace_back(false, std::vector<double>{100e-12, 700e-12});
  stim.emplace_back(false, std::vector<double>{});
  const auto wired_res = wired->simulate(stim, 0.0, 3e-9);
  const auto plain_res = plain->simulate(stim, 0.0, 3e-9);
  ASSERT_TRUE(wired_res.ok()) << wired_res.diagnostics.summary();
  ASSERT_TRUE(plain_res.ok()) << plain_res.diagnostics.summary();
  const auto& wired_y = wired_res.trace(wired->find_net("y"));
  const auto& plain_y = plain_res.trace(plain->find_net("y"));
  ASSERT_EQ(wired_y.n_transitions(), 2u);
  ASSERT_EQ(plain_y.n_transitions(), 2u);
  // The wire inserts a positive, physically plausible extra delay on every
  // edge (between a tenth of and ten Elmore delays).
  const double elmore = wire::WireParams::reference().elmore_delay();
  for (std::size_t k = 0; k < 2; ++k) {
    const double extra = wired_y.transitions()[k] - plain_y.transitions()[k];
    EXPECT_GT(extra, 0.1 * elmore) << k;
    EXPECT_LT(extra, 10.0 * elmore) << k;
  }
}

TEST(WireInterconnect, BuilderValidatesWires) {
  const auto lib = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const sim::CircuitBuilder builder(lib);
  // Bad parameters (zero resistance).
  EXPECT_THROW(builder.build_text("input(a)\n"
                                  "WIRE(w, a, r=0, c=1e-15)\n"),
               ConfigError);
  // Duplicate driver.
  EXPECT_THROW(builder.build_text("input(a)\n"
                                  "INV(x, a)\n"
                                  "WIRE(x, a, r=1e3, c=1e-15)\n"),
               ConfigError);
  // Undriven wire input.
  EXPECT_THROW(builder.build_text("input(a)\n"
                                  "WIRE(w, ghost, r=1e3, c=1e-15)\n"),
               ConfigError);
  // Cycle through a wire.
  EXPECT_THROW(builder.build_text("input(a)\n"
                                  "NAND2(x, a, w)\n"
                                  "WIRE(w, x, r=1e3, c=1e-15)\n"),
               ConfigError);
  // Undriven declared output.
  EXPECT_THROW(builder.build_text("input(a)\noutput(ghost)\nINV(x, a)\n"),
               ConfigError);
  // All satisfied: wires, outputs, and gates in any order.
  EXPECT_NO_THROW(builder.build_text("output(y)\n"
                                     "INV(y, w)\n"
                                     "WIRE(w, a, r=1e3, c=1e-15)\n"
                                     "input(a)\n"));
}

TEST(WireInterconnect, BatchRunnerIsThreadCountInvariantWithWires) {
  const auto lib = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const sim::CircuitBuilder builder(lib);
  const auto desc = cell::parse_netlist(
      "input(a, b)\n"
      "output(y, n0w)\n"
      "NOR2(n0, a, b)\n"
      "WIRE(n0w, n0, r=15e3, c=3e-15, sections=8, rdrive=10e3, "
      "cload=300e-18)\n"
      "INV(y, n0w)\n");
  auto factory = [&] { return builder.build(desc); };

  sim::BatchConfig config;
  config.trace.mu = 250e-12;
  config.trace.sigma = 80e-12;
  config.trace.n_transitions = 50;
  config.n_runs = 6;
  config.base_seed = 7;

  auto run = [&](std::size_t n_threads) {
    config.n_threads = n_threads;
    sim::BatchRunner runner(factory, desc.outputs, config);
    return runner.run();
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.nets.size(), 2u);
  EXPECT_GT(serial.nets[0].transitions, 0);
  for (std::size_t n = 0; n < serial.nets.size(); ++n) {
    EXPECT_EQ(serial.nets[n].transitions, parallel.nets[n].transitions);
    EXPECT_EQ(serial.nets[n].pulse_width.bins(),
              parallel.nets[n].pulse_width.bins());
    EXPECT_EQ(serial.nets[n].response_delay.sum(),
              parallel.nets[n].response_delay.sum());
  }
  EXPECT_EQ(serial.total_events, parallel.total_events);
  // Wire tables were derived once, not once per clone.
  EXPECT_EQ(builder.n_wire_tables(), 1u);
}

}  // namespace
}  // namespace charlie
