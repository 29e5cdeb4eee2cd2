#include "waveform/generator.hpp"

#include <algorithm>
#include <cstdio>

#include "util/error.hpp"
#include "util/units.hpp"

namespace charlie::waveform {

std::string TraceConfig::label() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g/%g - %s", mu / units::ps,
                sigma / units::ps, global_mode ? "GLOBAL" : "LOCAL");
  return buf;
}

std::vector<DigitalTrace> generate_traces(const TraceConfig& config,
                                          std::size_t n_inputs,
                                          util::Rng& rng) {
  CHARLIE_ASSERT(n_inputs >= 1);
  CHARLIE_ASSERT(config.n_transitions >= 1);
  CHARLIE_ASSERT(config.min_width > 0.0);

  std::vector<DigitalTrace> traces;
  traces.reserve(n_inputs);

  if (!config.global_mode) {
    for (std::size_t i = 0; i < n_inputs; ++i) {
      DigitalTrace trace(false, {});
      double t = config.t_start;
      for (std::size_t k = 0; k < config.n_transitions; ++k) {
        t += rng.normal_above(config.mu, config.sigma, config.min_width);
        trace.append_transition(t);
      }
      traces.push_back(std::move(trace));
    }
    return traces;
  }

  // GLOBAL: one master schedule; each transition lands on one input, so
  // different inputs rarely switch close together.
  for (std::size_t i = 0; i < n_inputs; ++i) {
    traces.emplace_back(false, std::vector<double>{});
  }
  double t = config.t_start;
  for (std::size_t k = 0; k < config.n_transitions; ++k) {
    t += rng.normal_above(config.mu, config.sigma, config.min_width);
    const std::size_t input = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_inputs) - 1));
    traces[input].append_transition(t);
  }
  return traces;
}

double end_time(const std::vector<DigitalTrace>& traces, double t_start,
                double tail) {
  double t_last = t_start;
  for (const DigitalTrace& trace : traces) {
    if (!trace.empty()) t_last = std::max(t_last, trace.transitions().back());
  }
  return t_last + tail;
}

std::vector<TraceConfig> paper_fig7_configs() {
  using units::ps;
  std::vector<TraceConfig> configs(4);
  configs[0] = {100 * ps, 50 * ps, false, 500, 0.0, 1 * ps};
  configs[1] = {200 * ps, 100 * ps, false, 500, 0.0, 1 * ps};
  configs[2] = {2000 * ps, 1000 * ps, true, 500, 0.0, 1 * ps};
  configs[3] = {5000 * ps, 5 * ps, true, 250, 0.0, 1 * ps};
  return configs;
}

}  // namespace charlie::waveform
