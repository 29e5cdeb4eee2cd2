#include "sim/accuracy.hpp"

#include <algorithm>
#include <cmath>

#include "sim/run_channel.hpp"
#include "spice/rc_line.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "waveform/digitize.hpp"
#include "waveform/metrics.hpp"

namespace charlie::sim {

AccuracyOptions::AccuracyOptions() {
  // Crossing-time fidelity of ~0.1 ps is ample for ps-scale deviation
  // areas; keep the analog runs fast.
  transient.v_abstol = 5e-5;
  transient.v_reltol = 5e-4;
}

AccuracyResult evaluate_gate_accuracy(const spice::Technology& tech,
                                      spice::CellKind cell,
                                      const waveform::TraceConfig& config,
                                      const std::vector<ModelUnderTest>& models,
                                      const AccuracyOptions& options) {
  CHARLIE_ASSERT(!models.empty());
  const auto baseline_it =
      std::find_if(models.begin(), models.end(),
                   [](const ModelUnderTest& m) { return m.is_baseline; });
  CHARLIE_ASSERT_MSG(baseline_it != models.end(),
                     "accuracy: a baseline model is required");
  const std::size_t baseline_index =
      static_cast<std::size_t>(baseline_it - models.begin());
  const std::size_t n_inputs =
      static_cast<std::size_t>(spice::cell_arity(cell));

  util::Rng rng(options.seed);
  std::vector<std::vector<double>> areas(models.size());

  AccuracyResult result;
  result.config_label = config.label();

  for (int rep = 0; rep < options.repetitions; ++rep) {
    util::Rng rep_rng = rng.fork();
    // Floor t_start so the first edge's ramp can develop from a settled DC
    // state; never move a caller-specified start earlier (see
    // AccuracyOptions).
    waveform::TraceConfig cfg = config;
    cfg.t_start = std::max(cfg.t_start, 2.0 * tech.input_rise_time);
    const auto traces = waveform::generate_traces(cfg, n_inputs, rep_rng);
    const double t_end =
        waveform::end_time(traces, cfg.t_start, options.tail_time);

    // Golden analog reference.
    const auto analog =
        spice::run_gate_cell(tech, cell, traces, t_end, options.transient);
    const auto golden = waveform::digitize(analog.vo, tech.vth());
    // Digital models see the digitized analog inputs, so runt pulses that
    // never reach V_th are absent for every model consistently.
    std::vector<waveform::DigitalTrace> digitized;
    digitized.reserve(n_inputs);
    for (const auto& wave : analog.vin) {
      digitized.push_back(waveform::digitize(wave, tech.vth()));
    }
    result.golden_transitions += static_cast<long>(golden.n_transitions());

    for (std::size_t m = 0; m < models.size(); ++m) {
      auto channel = models[m].make();
      const auto out = run_gate_channel(*channel, digitized, 0.0, t_end);
      areas[m].push_back(
          waveform::deviation_area(golden, out, 0.0, t_end));
    }
  }

  const double baseline_mean = math::mean(areas[baseline_index]);
  CHARLIE_ASSERT_MSG(baseline_mean > 0.0,
                     "accuracy: baseline produced zero deviation area");
  for (std::size_t m = 0; m < models.size(); ++m) {
    ModelAccuracy acc;
    acc.name = models[m].name;
    acc.mean_area = math::mean(areas[m]);
    acc.stddev_area = math::stddev(areas[m]);
    acc.normalized = acc.mean_area / baseline_mean;
    result.models.push_back(std::move(acc));
  }
  return result;
}

WireAccuracyOptions::WireAccuracyOptions() {
  // Same fidelity/runtime trade as AccuracyOptions: ~0.1 ps crossing
  // fidelity is ample for ps-scale deviation areas.
  transient.v_abstol = 5e-5;
  transient.v_reltol = 5e-4;
}

AccuracyResult evaluate_wire_accuracy(
    const wire::WireParams& params, const waveform::TraceConfig& config,
    const std::vector<WireModelUnderTest>& models,
    const WireAccuracyOptions& options) {
  CHARLIE_ASSERT(!models.empty());
  params.validate();
  const auto baseline_it =
      std::find_if(models.begin(), models.end(),
                   [](const WireModelUnderTest& m) { return m.is_baseline; });
  CHARLIE_ASSERT_MSG(baseline_it != models.end(),
                     "wire accuracy: a baseline model is required");
  const std::size_t baseline_index =
      static_cast<std::size_t>(baseline_it - models.begin());

  spice::RcLineSpec spec;
  spec.r_total = params.r_total;
  spec.c_total = params.c_total;
  spec.n_sections = params.n_sections;
  spec.r_drive = params.r_drive;
  spec.c_load = params.c_load;
  spec.vdd = params.vdd;

  util::Rng rng(options.seed);
  std::vector<std::vector<double>> areas(models.size());

  AccuracyResult result;
  result.config_label = config.label();

  for (int rep = 0; rep < options.repetitions; ++rep) {
    util::Rng rep_rng = rng.fork();
    // Floor t_start so the first edge's ramp can develop from a settled DC
    // state (same convention as the gate experiment).
    waveform::TraceConfig cfg = config;
    cfg.t_start = std::max(cfg.t_start, 2.0 * options.drive_rise_time);
    const auto traces = waveform::generate_traces(cfg, 1, rep_rng);
    const auto& drive = traces.front();
    const double t_end =
        waveform::end_time(traces, cfg.t_start, options.tail_time);

    // Golden: the full uncollapsed ladder on the analog substrate.
    const auto analog = spice::run_rc_line(spec, drive, options.drive_rise_time,
                                           t_end, options.transient);
    const auto golden = waveform::digitize(analog.vout, params.vth());
    // Models see the digitized analog drive, so runt drive pulses that never
    // reach V_th are absent for every model consistently.
    const auto digitized = waveform::digitize(analog.vin, params.vth());
    result.golden_transitions += static_cast<long>(golden.n_transitions());

    for (std::size_t m = 0; m < models.size(); ++m) {
      auto channel = models[m].make();
      const auto out = run_sis_channel(*channel, digitized, 0.0, t_end);
      areas[m].push_back(waveform::deviation_area(golden, out, 0.0, t_end));
    }
  }

  const double baseline_mean = math::mean(areas[baseline_index]);
  CHARLIE_ASSERT_MSG(baseline_mean > 0.0,
                     "wire accuracy: baseline produced zero deviation area");
  for (std::size_t m = 0; m < models.size(); ++m) {
    ModelAccuracy acc;
    acc.name = models[m].name;
    acc.mean_area = math::mean(areas[m]);
    acc.stddev_area = math::stddev(areas[m]);
    acc.normalized = acc.mean_area / baseline_mean;
    result.models.push_back(std::move(acc));
  }
  return result;
}

}  // namespace charlie::sim
