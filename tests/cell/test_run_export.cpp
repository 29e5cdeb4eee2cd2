// The drivers' shared run plumbing: the export arms the tracer only for a
// trace path, writes the registry's JSON (plus the trace.* counters when
// traced) and a VCD of the inputs and observed nets that parses back to
// the run's traces; the seeded stimulus and the batch capture lookup.
#include "cell/run_export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "obs/trace_recorder.hpp"
#include "util/error.hpp"
#include "util/csv.hpp"
#include "waveform/vcd.hpp"

namespace charlie::cell {
namespace {

class RunExportTest : public ::testing::Test {
 protected:
  // A failing test must not leak an armed recorder into its neighbors.
  void TearDown() override { obs::TraceRecorder::stop(); }

  static std::string path(const std::string& name) {
    return ::testing::TempDir() + "run_export_" + name;
  }

  static obs::MetricsRegistry sample_metrics() {
    obs::MetricsRegistry metrics;
    metrics.add("batch.runs", 3);
    metrics.observe("sim.events_per_run", 120.0);
    metrics.observe("sim.events_per_run", 95.0);
    return metrics;
  }
};

// A TraceOf that never gets called: exports without a VCD path.
const waveform::DigitalTrace& no_trace(const std::string& net) {
  ADD_FAILURE() << "trace of " << net << " requested without a VCD path";
  static const waveform::DigitalTrace none(false, {});
  return none;
}

const NetlistDesc& two_gate_netlist() {
  static const NetlistDesc desc = parse_netlist(
      "input(a, b)\n"
      "NOR2(x, a, b)\n"
      "INV(y, x)\n");
  return desc;
}

TEST_F(RunExportTest, NoTracerIsArmedWithoutATracePath) {
  const RunExport untraced{"", path("untraced.json"), ""};
  untraced.arm();
  EXPECT_FALSE(obs::TraceRecorder::armed());
  untraced.write(sample_metrics(), two_gate_netlist(), no_trace);
  EXPECT_FALSE(obs::TraceRecorder::armed());

  const RunExport traced{path("armed.trace.json"), "", ""};
  traced.arm();
  EXPECT_TRUE(obs::TraceRecorder::armed());
  traced.write(sample_metrics(), two_gate_netlist(), no_trace);
  EXPECT_FALSE(obs::TraceRecorder::armed());
}

TEST_F(RunExportTest, MetricsFileIsTheRegistryPlusTraceCounters) {
  const obs::MetricsRegistry metrics = sample_metrics();
  const RunExport untraced{"", path("plain.json"), ""};
  untraced.arm();
  untraced.write(metrics, two_gate_netlist(), no_trace);
  EXPECT_EQ(util::read_text_file(untraced.metrics_out), metrics.to_json());

  const RunExport traced{path("traced.trace.json"), path("traced.json"), ""};
  traced.arm();
  for (int i = 0; i < 3; ++i) {
    const obs::ScopedSpan span("test.span");
  }
  traced.write(metrics, two_gate_netlist(), no_trace);
  obs::MetricsRegistry expected = metrics;
  expected.add("trace.events", 3);
  expected.add("trace.dropped", 0);
  EXPECT_EQ(util::read_text_file(traced.metrics_out), expected.to_json());
  EXPECT_NE(util::read_text_file(traced.trace_out).find("\"test.span\""),
            std::string::npos);
}

TEST_F(RunExportTest, VcdParsesBackToTheRunsTraces) {
  const std::map<std::string, waveform::DigitalTrace> traces = {
      {"a", waveform::DigitalTrace(false, {100e-12, 250.5e-12})},
      {"b", waveform::DigitalTrace(true, {180e-12})},
      {"x", waveform::DigitalTrace(false, {})},
      {"y", waveform::DigitalTrace(true, {212.25e-12, 400e-12})},
  };
  const RunExport exports{"", "", path("run.vcd")};
  exports.write(obs::MetricsRegistry{}, two_gate_netlist(),
                [&](const std::string& net) -> const waveform::DigitalTrace& {
                  return traces.at(net);
                });
  const waveform::VcdData parsed = waveform::parse_vcd_file(exports.vcd_out);
  // The inputs and the observed net (the last instance's output); not x.
  std::vector<std::string> names;
  for (const auto& [name, trace] : parsed.digital) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "y"}));
  for (const auto& [name, round] : parsed.digital) {
    const waveform::DigitalTrace& source = traces.at(name);
    EXPECT_EQ(round.initial_value(), source.initial_value()) << name;
    ASSERT_EQ(round.n_transitions(), source.n_transitions()) << name;
    for (std::size_t i = 0; i < source.n_transitions(); ++i) {
      EXPECT_NEAR(round.transitions()[i], source.transitions()[i], 0.5e-15)
          << name << " edge " << i;
    }
  }
}

TEST(SeededStimulus, IsSeededAndEndsOneNanosecondAfterTheLastEdge) {
  const SeededStimulus stimulus = seeded_stimulus(3, 16, 7);
  ASSERT_EQ(stimulus.traces.size(), 3u);
  double t_last = 0.0;
  for (const waveform::DigitalTrace& trace : stimulus.traces) {
    EXPECT_EQ(trace.n_transitions(), 16u);
    t_last = std::max(t_last, trace.transitions().back());
  }
  EXPECT_EQ(stimulus.t_end, t_last + 1e-9);
  const SeededStimulus again = seeded_stimulus(3, 16, 7);
  const SeededStimulus other = seeded_stimulus(3, 16, 8);
  EXPECT_EQ(again.traces.front().transitions(),
            stimulus.traces.front().transitions());
  EXPECT_NE(other.traces.front().transitions(),
            stimulus.traces.front().transitions());
}

TEST(CapturedTraces, FindsCapturedNetsByName) {
  sim::BatchResult batch;
  batch.captured.push_back({"a", waveform::DigitalTrace(false, {1e-10})});
  batch.captured.push_back({"y", waveform::DigitalTrace(true, {2e-10})});
  const TraceOf trace_of = captured_traces(batch);
  EXPECT_EQ(&trace_of("y"), &batch.captured[1].trace);
  EXPECT_EQ(&trace_of("a"), &batch.captured[0].trace);
  EXPECT_THROW(trace_of("x"), ConfigError);
}

}  // namespace
}  // namespace charlie::cell
