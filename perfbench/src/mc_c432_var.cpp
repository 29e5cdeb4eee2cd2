// mc_c432_var: Monte-Carlo process-variation batch on c432.
//
// One persistent BatchRunner (4 threads, or fewer on a smaller host) runs
// 256 runs x 400 transitions per input under sigma = (vdd 0.05, vth
// 0.02 V, drive 0.05); a unit is one run() -- event loop, hybrid channel
// evaluation, crossing solves, ProcessBinder grid rebinds, pool claiming and
// the run-order reduction into BatchStats -- plus the metrics JSON export.
// Parse and build are negligible here; the event engine is almost all of it.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cell/netlist.hpp"
#include "harness.hpp"
#include "sim/batch_runner.hpp"
#include "sim/circuit_builder.hpp"

namespace perfbench {

namespace {

using namespace charlie;

bool same_histogram(const sim::Histogram& a, const sim::Histogram& b) {
  return a.bins() == b.bins() && a.underflow() == b.underflow() &&
         a.overflow() == b.overflow() && a.count() == b.count() &&
         a.sum() == b.sum();
}

// First difference between two batch results that must be bit-identical;
// empty when there is none.
std::string difference(const sim::BatchResult& a, const sim::BatchResult& b) {
  if (a.events_per_run != b.events_per_run) return "events_per_run";
  if (a.n_failed != b.n_failed) return "failed runs";
  if (a.nets.size() != b.nets.size()) return "observed nets";
  for (std::size_t n = 0; n < a.nets.size(); ++n) {
    if (a.nets[n].transitions != b.nets[n].transitions ||
        !same_histogram(a.nets[n].pulse_width, b.nets[n].pulse_width) ||
        !same_histogram(a.nets[n].response_delay, b.nets[n].response_delay)) {
      return "histograms of net " + a.nets[n].net;
    }
  }
  if (a.critical_delays != b.critical_delays) return "critical delays";
  if (a.stats.quantiles != b.stats.quantiles || a.stats.mean != b.stats.mean ||
      a.stats.stddev != b.stats.stddev ||
      a.stats.criticality != b.stats.criticality) {
    return "BatchStats";
  }
  if (a.metrics.to_json() != b.metrics.to_json()) return "metrics JSON";
  return "";
}

class McC432Var final : public Workload {
 public:
  explicit McC432Var(const Options& options)
      : options_(options),
        netlist_(options.root / "examples" / "netlists" / "c432.net"),
        metrics_path_(options.work / "mc_c432_var.metrics.json") {
    const unsigned hw = std::thread::hardware_concurrency();
    threads_ = std::clamp<std::size_t>(hw, 1, 4);
    config_.trace.mu = 150e-12;
    config_.trace.sigma = 60e-12;
    config_.trace.n_transitions = 400;
    config_.n_runs = 256;
    config_.n_threads = threads_;
    config_.base_seed = options.seed;
    config_.variation.vdd_sigma = 0.05;
    config_.variation.vth_sigma = 0.02;
    config_.variation.drive_sigma = 0.05;
  }

  std::size_t threads() const override { return threads_; }
  const char* task_span() const override { return "batch.run"; }
  std::size_t n_setups() const override { return 5; }

  void teardown() override {
    runner_.reset();
    builder_.reset();
    desc_ = {};
  }

  void setup() override {
    cell::NetlistDesc desc;
    {
      LayerSpan span("cell.parse");
      desc = cell::read_netlist_file(netlist_.string());
    }
    std::shared_ptr<const cell::CellLibrary> library;
    {
      LayerSpan span("cell.library_hit");
      library = cached_library(options_);
    }
    desc_ = std::move(desc);
    builder_ = std::make_unique<sim::CircuitBuilder>(library);
    // The factory runs inside the first run(), once per worker clone.
    runner_ = std::make_unique<sim::BatchRunner>(
        [this] {
          LayerSpan span("sim.build");
          return builder_->build(desc_);
        },
        desc_.outputs, config_);
    has_first_ = false;
  }

  UnitWork run_unit() override {
    {
      LayerSpan span("sim.batch_run");
      last_ = runner_->run();
    }
    {
      LayerSpan span("obs.metrics_json");
      last_.metrics.write_json(metrics_path_.string());
    }
    UnitWork u;
    u.events = last_.total_events;
    u.runs = static_cast<long long>(last_.n_runs - last_.n_failed);
    u.attempted = static_cast<long long>(last_.n_runs);
    u.failed = static_cast<long long>(last_.n_failed);
    return u;
  }

  void verify_unit() override {
    if (!has_first_) {
      first_ = std::move(last_);
      last_ = {};
      has_first_ = true;
      return;
    }
    const std::string diff = difference(first_, last_);
    if (!diff.empty()) mismatch("repeated run() differs in " + diff);
    last_ = {};
  }

  void check() override {
    // Thread invariance: the same batch on one thread, bit for bit.
    sim::BatchConfig one = config_;
    one.n_threads = 1;
    sim::BatchRunner reference([this] { return builder_->build(desc_); },
                               desc_.outputs, one);
    const sim::BatchResult ref = reference.run();
    const std::string diff = difference(ref, first_);
    if (!diff.empty()) {
      mismatch(std::to_string(threads_) + " threads vs 1 thread differ in " +
               diff);
    }
  }

  void layer_counts(Metrics& out) const override {
    const obs::LogHistogram* depth =
        first_.metrics.histogram("sim.max_heap_depth");
    engine_counts(first_.total_events, depth != nullptr ? depth->max() : 0.0,
                  first_.metrics.counter("run.newton_brent_fallbacks"),
                  first_.metrics.counter("run.nonfinite_guard_trips"), out);
  }

 private:
  Options options_;
  std::filesystem::path netlist_;
  std::filesystem::path metrics_path_;
  std::size_t threads_ = 1;
  sim::BatchConfig config_;
  cell::NetlistDesc desc_;
  std::unique_ptr<sim::CircuitBuilder> builder_;
  std::unique_ptr<sim::BatchRunner> runner_;
  sim::BatchResult last_;
  sim::BatchResult first_;
  bool has_first_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_mc_c432_var(const Options& options) {
  return std::make_unique<McC432Var>(options);
}

}  // namespace perfbench
