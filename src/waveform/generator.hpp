// Random input-trace generation for the accuracy experiments (paper §VI).
//
// The paper's waveform configurations are written "mu/sigma - MODE", e.g.
// "100/50 - LOCAL": inter-transition gaps are drawn from N(mu, sigma)
// picoseconds.
//   LOCAL  -- transitions are generated independently for each input, so
//             transitions on different inputs frequently land close
//             together (small |Delta|, heavy MIS activity).
//   GLOBAL -- ONE global transition sequence is generated and every
//             transition is assigned to a single (random) input, so
//             concurrent switching on different inputs is unlikely
//             (|Delta| is of the order of the pulse width); this probes
//             the SIS asymptotes of the models.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "waveform/digital_trace.hpp"

namespace charlie::waveform {

struct TraceConfig {
  double mu = 100e-12;     // mean pulse width [s]
  double sigma = 50e-12;   // std-dev of pulse width [s]
  bool global_mode = false;
  std::size_t n_transitions = 500;  // per input
  double t_start = 0.0;             // first transition lands after t_start
  double min_width = 1e-12;         // truncation floor for drawn widths

  /// Paper-style label, e.g. "100/50 - LOCAL" (mu/sigma in ps).
  std::string label() const;
};

/// Generate `n_inputs` digital traces per `config`. All inputs start at
/// logic 0. In GLOBAL mode, `n_transitions` counts the transitions of the
/// global sequence (so the per-input count is roughly n / n_inputs).
std::vector<DigitalTrace> generate_traces(const TraceConfig& config,
                                          std::size_t n_inputs,
                                          util::Rng& rng);

/// End time of a run over `traces`: `tail` after their last transition,
/// or after `t_start` when none has one.
double end_time(const std::vector<DigitalTrace>& traces, double t_start,
                double tail);

/// The four waveform configurations evaluated in the paper's Fig 7.
std::vector<TraceConfig> paper_fig7_configs();

}  // namespace charlie::waveform
