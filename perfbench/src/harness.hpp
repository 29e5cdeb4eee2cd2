// Shared harness for the end-to-end workloads.
//
// A workload drives the library only through its public entry points and
// wraps every call into a layer in a LayerSpan named after that layer
// (`cell.parse`, `sim.build_sharded`, `sta.paths`, ...). The harness times
// set-ups and steady-state units from outside with the steady clock; in a
// traced run it arms obs::TraceRecorder and splits the same time by layer
// from the recorded spans, together with the spans the program emits on its
// own worker threads (`batch.run`, `shard.task`, `pool.chunk`,
// `sim.advance`).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "obs/trace_recorder.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // steady-state measuring time
  bool trace = false;     // per-layer (traced) run instead of end-to-end
  std::filesystem::path root;  // checkout root (examples/netlists/...)
  std::filesystem::path work;  // directory for generated inputs and outputs
};

/// What one unit of work did. Summed over the units of a run.
struct UnitWork {
  long long events = 0;     // engine events
  long long runs = 0;       // Monte-Carlo runs completed
  long long attempted = 0;  // operations attempted
  long long failed = 0;     // operations that did not complete normally
};

/// Named values with units, in insertion order.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  /// Insert or overwrite.
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Arg key of the spans the benchmark opens; program spans never use it.
inline constexpr const char* kLayerKey = "layer";

/// Span around one call into a layer, opened in the benchmark's own files.
/// `name` is `<layer>.<call>` and must be a string literal.
class LayerSpan : public charlie::obs::ScopedSpan {
 public:
  explicit LayerSpan(const char* name)
      : charlie::obs::ScopedSpan(name, kLayerKey, 0) {}
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Worker threads of the steady state.
  virtual std::size_t threads() const = 0;

  /// Program span that one worker task records (`batch.run`, `shard.task`);
  /// nullptr when the workload has no worker pool.
  virtual const char* task_span() const = 0;

  /// Set-ups per end-to-end run; setup_s is their median.
  virtual std::size_t n_setups() const = 0;

  /// Untimed: drops the current state, so the next set-up does not pay for
  /// destroying it.
  virtual void teardown() = 0;

  /// Fresh set-up (parse, library hit, build) after teardown(). The
  /// harness follows it with the first unit, timed as set-up.
  virtual void setup() = 0;

  /// One unit of work on the current state.
  virtual UnitWork run_unit() = 0;

  /// Untimed: compares the last unit's output with the first unit of the
  /// same state, records a mismatch (see mismatches()) if they differ, and
  /// releases the last output so the next unit does not pay for it.
  virtual void verify_unit() = 0;

  /// Correctness gate against references computed outside all timing.
  virtual void check() = 0;

  /// Per-layer counts of the current state's first unit (events, shard.*,
  /// sta.*); every later unit repeats it.
  virtual void layer_counts(Metrics& out) const = 0;

  const std::vector<std::string>& mismatches() const { return mismatches_; }

 protected:
  void mismatch(const std::string& what) { mismatches_.push_back(what); }

 private:
  std::vector<std::string> mismatches_;
};

std::unique_ptr<Workload> make_mc_c432_var(const Options& options);
std::unique_ptr<Workload> make_shard_gen100k(const Options& options);
std::unique_ptr<Workload> make_sta_gen100k(const Options& options);

/// Event-engine counts of one unit: sim.events, sim.max_heap_depth,
/// run.newton_brent_fallbacks_per_kevent (crossing solves Newton handed to
/// Brent, per 1000 events) and run.nonfinite_guard_trips.
void engine_counts(long long events, double max_heap_depth,
                   long long newton_brent_fallbacks,
                   long long nonfinite_guard_trips, Metrics& out);

/// CellLibrary::characterize_cached on the benchmark's cache file in
/// options.work: a hit once the harness has primed it.
std::shared_ptr<const charlie::cell::CellLibrary> cached_library(
    const Options& options);

/// Generator seed of the 100k-gate netlist. It is fixed, not the run seed:
/// generated netlists differ by up to 1.7x in simulation cost (events and
/// shard balance), which would measure a different circuit per seed. The
/// run seed varies the stimuli and the process samples instead.
inline constexpr std::uint64_t kNetlistSeed = 1;

/// The generated 100k-gate netlist, written to options.work so the
/// workloads time the parse of a real file. Returns its path.
std::filesystem::path generated_netlist(const Options& options);

/// Runs one workload per `options` and prints its metrics; returns the exit
/// status.
int run(Workload& workload, const Options& options);

}  // namespace perfbench
