// MIS characterization sweep: measure a transistor-level NOR2 on the
// analog substrate, fit the hybrid model to it, and print/export the
// model-vs-analog delay curves (the Fig 5 / Fig 6 workflow as a library
// use case). With --gates, additionally characterize + fit the multi-input
// cells (NOR3/NAND2/NAND3) and report each hybrid channel's deviation area
// against the analog golden output, normalized to the inertial baseline.
//
//   $ ./examples/mis_sweep [--points N] [--csv] [--gates] [--reps N]
#include <iostream>

#include "core/delay_model.hpp"
#include "core/gate_parametrize.hpp"
#include "sim/accuracy.hpp"
#include "sim/gate_models.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "spice/characterize.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/math.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

// Characterize one multi-input cell, fit the generalized hybrid model, and
// run the Fig-7-style deviation-area comparison against the SIS baselines.
void report_gate_accuracy(const charlie::spice::Technology& tech,
                          charlie::spice::CellKind cell, int reps,
                          charlie::util::TextTable& table,
                          charlie::util::CsvWriter* out) {
  using namespace charlie;
  const int n = spice::cell_arity(cell);
  const auto topology = spice::cell_is_nand(cell)
                            ? core::GateTopology::kNandLike
                            : core::GateTopology::kNorLike;

  const auto measured = spice::measure_gate_targets(tech, cell);
  core::GateTargets targets;
  targets.fall = measured.fall;
  targets.rise = measured.rise;
  targets.fall_all = measured.fall_all;
  targets.rise_all = measured.rise_all;
  core::GateFitOptions fit_opts;
  fit_opts.vdd = tech.vdd;
  const auto fit = core::fit_gate_params(topology, targets, fit_opts);

  sim::SisGateDelays sis;
  sis.fall = math::mean(measured.fall);
  sis.rise = math::mean(measured.rise);
  std::vector<sim::ModelUnderTest> models;
  models.push_back({"inertial",
                    [&] { return sim::make_inertial_gate(topology, n, sis); },
                    true});
  models.push_back(
      {"pure", [&] { return sim::make_pure_gate(topology, n, sis); }, false});
  models.push_back({"hm",
                    [&] {
                      return std::make_unique<sim::HybridGateChannel>(
                          fit.params);
                    },
                    false});

  waveform::TraceConfig cfg;
  cfg.mu = 400e-12;
  cfg.sigma = 200e-12;
  cfg.n_transitions = 40;
  sim::AccuracyOptions opts;
  opts.repetitions = reps;
  const auto result = sim::evaluate_gate_accuracy(tech, cell, cfg, models, opts);

  table.add_row({spice::cell_name(cell),
                 util::fmt(result.models[0].mean_area / units::ps, 1),
                 util::fmt(result.models[1].normalized, 3),
                 util::fmt(result.models[2].normalized, 3),
                 util::fmt(fit.rms_error / units::ps, 2)});
  if (out != nullptr) {
    out->row_text({spice::cell_name(cell), std::to_string(n),
                   util::fmt(result.models[0].mean_area / units::ps, 3),
                   util::fmt(result.models[1].normalized, 4),
                   util::fmt(result.models[2].normalized, 4),
                   util::fmt(fit.rms_error / units::ps, 3)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace charlie;
  util::Cli cli(argc, argv);
  const int n_points = cli.get_int("--points", 13);
  const bool csv = cli.has_flag("--csv");
  const bool gates = cli.has_flag("--gates");
  const int reps = cli.get_int("--reps", 2);
  cli.finish();

  // 1. The device under test: a Level-1 transistor netlist of the NOR2
  //    with parasitics (stand-in for the paper's Spectre testbench).
  const auto tech = spice::Technology::freepdk15_like();

  // 2. Characterize: six characteristic Charlie delays from six transient
  //    analyses.
  std::cout << "Measuring characteristic delays on the analog substrate...\n";
  const auto sub = spice::measure_characteristics(tech);

  // 3. Fit the hybrid model (picks delta_min by the ratio rule, then
  //    least-squares on R1..R4, C_N, C_O).
  core::CharacteristicDelays targets;
  targets.fall_minus_inf = sub.fall_minus_inf;
  targets.fall_zero = sub.fall_zero;
  targets.fall_plus_inf = sub.fall_plus_inf;
  targets.rise_minus_inf = sub.rise_minus_inf;
  targets.rise_zero = sub.rise_zero;
  targets.rise_plus_inf = sub.rise_plus_inf;
  core::GateFitOptions opts;
  opts.vdd = tech.vdd;
  const auto fit = core::fit_nor_params(targets, opts);
  std::cout << "Fitted: " << fit.params.to_string() << "\n"
            << "RMS error over targets: "
            << units::format_time(fit.gate.rms_error) << "\n\n";

  // 4. Sweep Delta and compare.
  const core::NorDelayModel model(fit.params);
  util::TextTable table({"Delta [ps]", "fall model", "fall analog",
                         "rise model", "rise analog"});
  std::unique_ptr<util::CsvWriter> out;
  if (csv) {
    out = std::make_unique<util::CsvWriter>(
        "example_out/mis_sweep.csv",
        std::vector<std::string>{"delta_ps", "fall_model_ps",
                                 "fall_analog_ps", "rise_model_ps",
                                 "rise_analog_ps"});
  }
  for (double delta : math::linspace(-60e-12, 60e-12, n_points)) {
    const double fm = model.falling_delay(delta).delay / units::ps;
    const double fs =
        spice::measure_falling_delay(tech, delta).delay / units::ps;
    const double rm = model.rising_delay(delta, 0.0).delay / units::ps;
    const double rs =
        spice::measure_rising_delay(tech, delta,
                                    spice::NorHistory::kInternalDrained)
            .delay /
        units::ps;
    table.add_row({delta / units::ps, fm, fs, rm, rs}, 2);
    if (out) out->row({delta / units::ps, fm, fs, rm, rs});
  }
  table.print(std::cout);
  std::cout << "\nNote the falling curve's tight match and the rising "
               "curve's missing bump\nnear Delta = 0 -- the model "
               "limitation the paper documents.\n";
  if (csv) std::cout << "CSV written to example_out/mis_sweep.csv\n";

  if (gates) {
    // 5. Multi-input gates: characterize, fit, and compare deviation areas
    //    on an MIS-heavy random workload (hybrid vs the SIS baselines).
    std::cout << "\nMulti-input cells (deviation areas vs analog golden, "
                 "normalized to inertial):\n";
    util::TextTable gate_table({"cell", "inertial [ps]", "pure (norm)",
                                "hm (norm)", "fit RMS [ps]"});
    std::unique_ptr<util::CsvWriter> gate_out;
    if (csv) {
      gate_out = std::make_unique<util::CsvWriter>(
          "example_out/multi_input_accuracy.csv",
          std::vector<std::string>{"cell", "n_inputs", "inertial_area_ps",
                                   "pure_normalized", "hm_normalized",
                                   "fit_rms_ps"});
    }
    for (auto cell : {spice::CellKind::kNor3, spice::CellKind::kNand2,
                      spice::CellKind::kNand3}) {
      std::cout << "  characterizing + fitting " << spice::cell_name(cell)
                << "...\n";
      report_gate_accuracy(tech, cell, reps, gate_table, gate_out.get());
    }
    gate_table.print(std::cout);
    std::cout << "\nThe hybrid channel tracks multi-input switching "
                 "(normalized area well below 1)\nwhere the pure-delay "
                 "channel cannot; the inertial baseline defines 1.0.\n";
    if (csv) {
      std::cout << "CSV written to example_out/multi_input_accuracy.csv\n";
    }
  }
  return 0;
}
