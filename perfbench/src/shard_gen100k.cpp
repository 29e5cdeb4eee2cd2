// shard_gen100k: one 100k-gate simulation partitioned across shards.
//
// The seed's generated netlist (100k gates + ~2% RC wires) is parsed from
// its file and built with build_sharded(desc, 4); a unit is one
// ShardedCircuit::simulate of 1024 transitions per input at up to 4 threads
// (the conservative wavefront with cross-shard exchange), a VCD of the
// declared outputs and the run's metrics JSON. Set-up is dominated by parse,
// build and partition; no process variation is involved.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cell/netlist.hpp"
#include "harness.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/sharded_circuit.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"
#include "waveform/vcd.hpp"

namespace perfbench {

namespace {

using namespace charlie;

constexpr std::size_t kShards = 4;

bool same_trace(const waveform::DigitalTrace& a,
                const waveform::DigitalTrace& b) {
  return a.initial_value() == b.initial_value() &&
         a.transitions() == b.transitions();
}

class ShardGen100k final : public Workload {
 public:
  explicit ShardGen100k(const Options& options)
      : options_(options),
        netlist_(generated_netlist(options)),
        vcd_path_(options.work / "shard_gen100k.vcd"),
        metrics_path_(options.work / "shard_gen100k.metrics.json") {
    const unsigned hw = std::thread::hardware_concurrency();
    config_.n_threads = std::clamp<std::size_t>(hw, 1, kShards);
    stimulus_.mu = 150e-12;
    stimulus_.sigma = 60e-12;
    stimulus_.n_transitions = 1024;
  }

  std::size_t threads() const override { return config_.n_threads; }
  const char* task_span() const override { return "shard.task"; }
  std::size_t n_setups() const override { return 3; }

  void teardown() override {
    // Results point into the circuit: drop them first.
    last_ = {};
    first_ = {};
    circuit_.reset();
    builder_.reset();
    stimuli_.clear();
    desc_ = {};
  }

  void setup() override {
    {
      LayerSpan span("cell.parse");
      desc_ = cell::read_netlist_file(netlist_.string());
    }
    std::shared_ptr<const cell::CellLibrary> library;
    {
      LayerSpan span("cell.library_hit");
      library = cached_library(options_);
    }
    builder_ = std::make_unique<sim::CircuitBuilder>(library);
    {
      LayerSpan span("sim.build_sharded");
      circuit_ = builder_->build_sharded(desc_, kShards);
    }
    {
      LayerSpan span("waveform.stimuli");
      util::Rng rng(options_.seed);
      stimuli_ = waveform::generate_traces(stimulus_, circuit_->n_inputs(), rng);
    }
    double t_last = stimulus_.t_start;
    for (const auto& trace : stimuli_) {
      if (!trace.empty()) t_last = std::max(t_last, trace.transitions().back());
    }
    t_end_ = t_last + 1e-9;
    has_first_ = false;
  }

  UnitWork run_unit() override {
    {
      LayerSpan span("sim.shard_simulate");
      last_ = circuit_->simulate(stimuli_, 0.0, t_end_, config_);
    }
    {
      LayerSpan span("waveform.vcd_write");
      std::vector<waveform::VcdDigitalSignal> signals;
      signals.reserve(desc_.outputs.size());
      for (const std::string& net : desc_.outputs) {
        signals.push_back({net, &last_.trace(net)});
      }
      waveform::write_vcd(vcd_path_.string(), signals);
    }
    {
      LayerSpan span("obs.metrics_json");
      last_.metrics.write_json(metrics_path_.string());
    }
    UnitWork u;
    u.events = last_.n_events;
    u.attempted = 1;
    u.failed = last_.ok() ? 0 : 1;
    return u;
  }

  void verify_unit() override {
    if (!has_first_) {
      first_ = std::move(last_);
      last_ = {};
      has_first_ = true;
      return;
    }
    if (last_.n_events != first_.n_events) {
      mismatch("repeated simulate() differs in n_events");
    }
    for (const std::string& net : desc_.outputs) {
      if (!same_trace(last_.trace(net), first_.trace(net))) {
        mismatch("repeated simulate() differs on output " + net);
        break;
      }
    }
    last_ = {};
  }

  void check() override {
    // Monolithic reference: build() + Circuit::simulate on one thread must
    // match the sharded run event for event, on every net.
    const auto mono = builder_->build(desc_);
    const sim::Circuit::SimResult ref = mono->simulate(stimuli_, 0.0, t_end_);
    reference_counters_ = ref.diagnostics.counters;
    if (ref.n_events != first_.n_events) {
      mismatch("sharded n_events " + std::to_string(first_.n_events) +
               " vs monolithic " + std::to_string(ref.n_events));
    }
    for (std::size_t id = 0; id < mono->n_nets(); ++id) {
      const auto net = static_cast<sim::Circuit::NetId>(id);
      const std::string& name = mono->net_name(net);
      if (!same_trace(ref.trace(net), first_.trace(name))) {
        mismatch("sharded trace of net " + name + " differs from monolithic");
        return;
      }
    }
  }

  void layer_counts(Metrics& out) const override {
    const obs::LogHistogram* depth =
        first_.metrics.histogram("sim.max_heap_depth");
    // Guard/fallback counters are thread-local to the executing workers, so
    // they come from the single-threaded monolithic reference run, which
    // solves the same crossings.
    engine_counts(first_.n_events, depth != nullptr ? depth->max() : 0.0,
                  reference_counters_.newton_brent_fallbacks,
                  reference_counters_.nonfinite_guard_trips, out);
    out.set("shard.load_imbalance", first_.load_imbalance(), "ratio");
    out.set("shard.windows", static_cast<double>(first_.n_windows), "count");
    out.set("shard.boundary_transitions",
            static_cast<double>(
                first_.metrics.counter("shard.boundary_transitions")),
            "count");
  }

 private:
  Options options_;
  std::filesystem::path netlist_;
  std::filesystem::path vcd_path_;
  std::filesystem::path metrics_path_;
  waveform::TraceConfig stimulus_;
  sim::ShardedSimConfig config_;
  cell::NetlistDesc desc_;
  std::unique_ptr<sim::CircuitBuilder> builder_;
  std::unique_ptr<sim::ShardedCircuit> circuit_;
  std::vector<waveform::DigitalTrace> stimuli_;
  double t_end_ = 0.0;
  sim::ShardedCircuit::Result last_;
  sim::ShardedCircuit::Result first_;
  bool has_first_ = false;
  util::RunCounters reference_counters_;
};

}  // namespace

std::unique_ptr<Workload> make_shard_gen100k(const Options& options) {
  return std::make_unique<ShardGen100k>(options);
}

}  // namespace perfbench
