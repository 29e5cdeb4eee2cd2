// What the netlist drivers (tools/trace_run, tools/sta_report and
// examples/monte_carlo) share around a run: the seeded stimulus and the
// trace/metrics/VCD export (docs/observability.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cell/netlist.hpp"
#include "obs/metrics.hpp"
#include "sim/batch_runner.hpp"
#include "waveform/digital_trace.hpp"
#include "waveform/generator.hpp"

namespace charlie::cell {

/// The drivers' stimulus statistics: gaps between transitions drawn from
/// N(150 ps, 60 ps), `n_transitions` per input. A batch draws every run's
/// traces from it.
waveform::TraceConfig driver_stimulus(std::size_t n_transitions);

/// One seeded draw of driver_stimulus for a single run, and the time that
/// run ends: 1 ns after the last transition, the batch's settle tail.
struct SeededStimulus {
  std::vector<waveform::DigitalTrace> traces;
  double t_end = 0.0;
};
SeededStimulus seeded_stimulus(std::size_t n_inputs,
                               std::size_t n_transitions,
                               std::uint64_t seed);

/// A finished run's trace of a net, by name.
using TraceOf =
    std::function<const waveform::DigitalTrace&(const std::string& net)>;

/// TraceOf over the run a batch captured (BatchConfig::capture_run). It
/// refers to `batch`, which must outlive it; an uncaptured net is a
/// ConfigError.
TraceOf captured_traces(const sim::BatchResult& batch);

/// A driver's output files; an empty path skips that file.
struct RunExport {
  std::string trace_out;    // Chrome trace-event JSON of the armed work
  std::string metrics_out;  // the run's metrics registry as JSON
  std::string vcd_out;      // VCD of the primary inputs and observed nets

  /// Arms the execution tracer when trace_out is set; call it right before
  /// the work to trace.
  void arm() const;

  /// Stops the tracer and writes each requested file, printing one line per
  /// file: the Chrome trace (adding trace.events and trace.dropped to
  /// `metrics`), `metrics` as JSON, and the VCD of desc's primary inputs,
  /// then observed_nets(desc), with each net's trace from `trace_of`.
  void write(obs::MetricsRegistry metrics, const NetlistDesc& desc,
             const TraceOf& trace_of) const;
};

}  // namespace charlie::cell
