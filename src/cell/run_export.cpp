#include "cell/run_export.hpp"

#include <cstdio>

#include "obs/trace_recorder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "waveform/vcd.hpp"

namespace charlie::cell {

waveform::TraceConfig driver_stimulus(std::size_t n_transitions) {
  waveform::TraceConfig config;
  config.mu = 150e-12;
  config.sigma = 60e-12;
  config.n_transitions = n_transitions;
  return config;
}

SeededStimulus seeded_stimulus(std::size_t n_inputs,
                               std::size_t n_transitions,
                               std::uint64_t seed) {
  const waveform::TraceConfig config = driver_stimulus(n_transitions);
  util::Rng rng(seed);
  SeededStimulus stimulus;
  stimulus.traces = waveform::generate_traces(config, n_inputs, rng);
  stimulus.t_end = waveform::end_time(stimulus.traces, config.t_start, 1e-9);
  return stimulus;
}

TraceOf captured_traces(const sim::BatchResult& batch) {
  return [&batch](const std::string& net) -> const waveform::DigitalTrace& {
    for (const auto& captured : batch.captured) {
      if (captured.net == net) return captured.trace;
    }
    throw ConfigError("batch result: net \"" + net + "\" was not captured");
  };
}

void RunExport::arm() const {
  if (!trace_out.empty()) obs::TraceRecorder::start();
}

void RunExport::write(obs::MetricsRegistry metrics, const NetlistDesc& desc,
                      const TraceOf& trace_of) const {
  if (!trace_out.empty()) {
    obs::TraceRecorder::stop();
    const auto snapshot = obs::TraceRecorder::collect();
    obs::write_chrome_trace(snapshot, trace_out);
    metrics.add("trace.events",
                static_cast<long long>(snapshot.events.size()));
    metrics.add("trace.dropped", static_cast<long long>(snapshot.n_dropped));
    std::printf("trace           : %zu events -> %s%s\n",
                snapshot.events.size(), trace_out.c_str(),
                snapshot.n_dropped > 0 ? " (ring overflow, raise capacity)"
                                       : "");
  }
  if (!metrics_out.empty()) {
    metrics.write_json(metrics_out);
    std::printf("metrics         : %s\n", metrics_out.c_str());
  }
  if (!vcd_out.empty()) {
    std::vector<waveform::VcdDigitalSignal> signals;
    for (const std::string& net : desc.inputs) {
      signals.push_back({net, &trace_of(net)});
    }
    for (const std::string& net : observed_nets(desc)) {
      signals.push_back({net, &trace_of(net)});
    }
    waveform::write_vcd(vcd_out, signals);
    std::printf("vcd             : %zu signals -> %s\n", signals.size(),
                vcd_out.c_str());
  }
}

}  // namespace charlie::cell
