#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <set>
#include <string_view>

#include "cell/netlist.hpp"
#include "cell/netlist_gen.hpp"
#include "spice/technology.hpp"

namespace perfbench {

namespace cell = charlie::cell;
namespace obs = charlie::obs;
using Clock = std::chrono::steady_clock;

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void engine_counts(long long events, double max_heap_depth,
                   long long newton_brent_fallbacks,
                   long long nonfinite_guard_trips, Metrics& out) {
  out.set("sim.events", static_cast<double>(events), "count");
  out.set("sim.max_heap_depth", max_heap_depth, "count");
  out.set("run.newton_brent_fallbacks_per_kevent",
          events > 0 ? 1e3 * static_cast<double>(newton_brent_fallbacks) /
                           static_cast<double>(events)
                     : 0.0,
          "ratio");
  out.set("run.nonfinite_guard_trips",
          static_cast<double>(nonfinite_guard_trips), "count");
}

std::shared_ptr<const cell::CellLibrary> cached_library(
    const Options& options) {
  return std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::characterize_cached(
          (options.work / "cells.csv").string(),
          charlie::spice::Technology::freepdk15_like()));
}

std::filesystem::path generated_netlist(const Options& options) {
  cell::NetlistGenConfig config;
  config.n_gates = 100000;
  config.seed = kNetlistSeed;
  const auto path = options.work / "gen100k.net";
  cell::write_netlist_file(cell::generate_netlist(config), path.string());
  return path;
}

namespace {

// Steady units per run even when --seconds is shorter than three units.
constexpr std::size_t kMinUnits = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// The highest sample with at least ten samples beyond it (never below the
// median); the largest sample when there are ten or fewer.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};

Tail tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) return {v.back(), 100.0};
  const std::size_t i = std::max(n - 11, n / 2);
  return {v[i], 100.0 * static_cast<double>(i + 1) / static_cast<double>(n)};
}

void add(UnitWork& total, const UnitWork& u) {
  total.events += u.events;
  total.runs += u.runs;
  total.attempted += u.attempted;
  total.failed += u.failed;
}

struct Phase {
  std::vector<double> setup_s;
  std::vector<double> unit_s;
  std::vector<double> unit_cpu_s;
  UnitWork all;     // first units and steady units
  UnitWork steady;  // steady units only
};

// n_setups fresh set-ups, each followed by its first unit, then steady
// units on the last set-up's state for `seconds`.
Phase measure(Workload& w, std::size_t n_setups, double seconds) {
  Phase p;
  for (std::size_t k = 0; k < n_setups; ++k) {
    w.teardown();
    const auto t0 = Clock::now();
    UnitWork first;
    {
      obs::ScopedSpan span("bench.setup", "index", static_cast<long long>(k));
      w.setup();
      obs::ScopedSpan first_span("bench.first_unit", "index",
                                 static_cast<long long>(k));
      first = w.run_unit();
    }
    p.setup_s.push_back(seconds_since(t0));
    add(p.all, first);
    w.verify_unit();
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (p.unit_s.size() < kMinUnits || Clock::now() < deadline) {
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    UnitWork u;
    {
      obs::ScopedSpan span("bench.unit", "index",
                           static_cast<long long>(p.unit_s.size()));
      u = w.run_unit();
    }
    p.unit_s.push_back(seconds_since(t0));
    p.unit_cpu_s.push_back(cpu_seconds() - cpu0);
    add(p.all, u);
    add(p.steady, u);
    w.verify_unit();
  }
  return p;
}

bool is_layer_span(const obs::TraceEvent& e) {
  return e.k0 != nullptr && std::strcmp(e.k0, kLayerKey) == 0;
}

bool named(const obs::TraceEvent& e, const char* name) {
  return std::strcmp(e.name, name) == 0;
}

// A span the benchmark opened: a layer span or an enclosing bench.* span.
bool is_bench_span(const obs::TraceEvent& e) {
  return is_layer_span(e) || std::strncmp(e.name, "bench.", 6) == 0;
}

bool is_report(std::string_view name) {
  return name == "obs.metrics_json" || name == "waveform.vcd_write";
}

// Per-layer split of a traced phase, from the recorded spans.
struct Split {
  // Self time per layer span name, summed per set-up (outside its first
  // unit), per first unit and per steady unit.
  std::vector<std::map<std::string, double>> setup, first, unit;
  // Self time of the benchmark's own enclosing spans: time no layer span
  // covers.
  std::vector<double> setup_unattributed, unit_unattributed;
  std::vector<double> first_unit_s;  // first-unit durations
  // Worker task spans (Workload::task_span) started inside steady units.
  std::vector<double> task_s;
  double task_busy_s = 0.0;
  double pool_chunk_busy_s = 0.0;
  long long n_pool_chunks = 0;
  long long n_advance = 0;
};

Split split_trace(const obs::TraceRecorder::Snapshot& snapshot,
                  const char* task_span) {
  Split split;
  std::uint32_t main_tid = 0;
  for (const auto& e : snapshot.events) {
    if (named(e, "bench.setup")) {
      main_tid = e.tid;
      break;
    }
  }
  struct Node {
    const obs::TraceEvent* e;
    long long self_ns;
    int parent;
  };
  std::vector<Node> nodes;
  for (const auto& e : snapshot.events) {
    if (e.tid == main_tid && e.phase == 'X') nodes.push_back({&e, e.dur_ns, -1});
  }
  std::sort(nodes.begin(), nodes.end(), [](const Node& a, const Node& b) {
    if (a.e->t_start_ns != b.e->t_start_ns) {
      return a.e->t_start_ns < b.e->t_start_ns;
    }
    return a.e->dur_ns > b.e->dur_ns;
  });
  auto end_of = [](const obs::TraceEvent* e) { return e->t_start_ns + e->dur_ns; };
  std::vector<int> stack;
  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
    const obs::TraceEvent* e = nodes[static_cast<std::size_t>(i)].e;
    while (!stack.empty() &&
           end_of(nodes[static_cast<std::size_t>(stack.back())].e) <
               end_of(e)) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      nodes[static_cast<std::size_t>(i)].parent = stack.back();
      // A program span inside a layer call is part of that layer's time.
      if (is_bench_span(*e)) {
        nodes[static_cast<std::size_t>(stack.back())].self_ns -= e->dur_ns;
      }
    }
    stack.push_back(i);
  }

  auto slot = [](std::vector<std::map<std::string, double>>& v,
                 long long index) -> std::map<std::string, double>& {
    const auto i = static_cast<std::size_t>(index);
    if (v.size() <= i) v.resize(i + 1);
    return v[i];
  };
  auto grow = [](std::vector<double>& v, long long index) -> double& {
    const auto i = static_cast<std::size_t>(index);
    if (v.size() <= i) v.resize(i + 1, 0.0);
    return v[i];
  };
  std::vector<std::pair<long long, long long>> unit_windows;
  for (const Node& n : nodes) {
    const obs::TraceEvent& e = *n.e;
    const double self_s = 1e-9 * static_cast<double>(n.self_ns);
    if (named(e, "bench.setup")) {
      grow(split.setup_unattributed, e.v0) += self_s;
    } else if (named(e, "bench.first_unit")) {
      grow(split.setup_unattributed, e.v0) += self_s;
      grow(split.first_unit_s, e.v0) = 1e-9 * static_cast<double>(e.dur_ns);
    } else if (named(e, "bench.unit")) {
      grow(split.unit_unattributed, e.v0) += self_s;
      unit_windows.emplace_back(e.t_start_ns, end_of(&e));
    } else if (is_layer_span(e)) {
      // Attribute to the nearest enclosing benchmark span.
      for (int p = n.parent; p >= 0; p = nodes[static_cast<std::size_t>(p)].parent) {
        const obs::TraceEvent& a = *nodes[static_cast<std::size_t>(p)].e;
        if (named(a, "bench.setup")) {
          slot(split.setup, a.v0)[e.name] += self_s;
        } else if (named(a, "bench.first_unit")) {
          slot(split.first, a.v0)[e.name] += self_s;
        } else if (named(a, "bench.unit")) {
          slot(split.unit, a.v0)[e.name] += self_s;
        } else {
          continue;
        }
        break;
      }
    }
  }

  auto in_unit = [&](long long t) {
    for (const auto& [lo, hi] : unit_windows) {
      if (t >= lo && t <= hi) return true;
    }
    return false;
  };
  for (const auto& e : snapshot.events) {
    if (e.tid == main_tid || e.phase != 'X' || !in_unit(e.t_start_ns)) {
      continue;
    }
    const double dur_s = 1e-9 * static_cast<double>(e.dur_ns);
    if (task_span != nullptr && named(e, task_span)) {
      split.task_s.push_back(dur_s);
      split.task_busy_s += dur_s;
    } else if (named(e, "pool.chunk")) {
      split.pool_chunk_busy_s += dur_s;
      ++split.n_pool_chunks;
    } else if (named(e, "sim.advance")) {
      ++split.n_advance;
    }
  }
  return split;
}

// Median over per-instance maps of the summed self time of the names
// `pick` selects (absent = 0).
template <typename Pick>
double median_of(const std::vector<std::map<std::string, double>>& per,
                 Pick&& pick) {
  std::vector<double> v;
  for (const auto& m : per) {
    double s = 0.0;
    for (const auto& [name, t] : m) {
      if (pick(name)) s += t;
    }
    v.push_back(s);
  }
  return median(v);
}

void per_layer_metrics(const Split& split, const Workload& w,
                       std::size_t n_units, double untraced_unit_s,
                       double traced_unit_s, double traced_setup_s,
                       Metrics& m) {
  auto only = [](const char* want) {
    return [want](const std::string& name) { return name == want; };
  };

  // Every layer call by name: set-up calls, first-unit calls (prefixed
  // `first.`) and steady-unit calls, each as the median per instance.
  std::set<std::string> names;
  for (const auto* per : {&split.setup, &split.first, &split.unit}) {
    for (const auto& mm : *per) {
      for (const auto& entry : mm) names.insert(entry.first);
    }
  }
  for (const std::string& name : names) {
    const double s = median_of(split.setup, only(name.c_str()));
    const double f = median_of(split.first, only(name.c_str()));
    const double u = median_of(split.unit, only(name.c_str()));
    if (s > 0.0) m.set(name + "_s", s, "s");
    if (f > 0.0) m.set("first." + name + "_s", f, "s");
    if (u > 0.0) m.set(name + "_s", u, "s");
  }

  m.set("cell.parse_s", median_of(split.setup, only("cell.parse")), "s");
  m.set("cell.library_hit_s", median_of(split.setup, only("cell.library_hit")),
        "s");
  // Construction may happen inside the first unit (BatchRunner builds its
  // worker clones in the first run()), so it is picked out by name.
  auto is_build = [](const std::string& name) {
    return name.rfind("sim.build", 0) == 0 || name == "sta.graph_build";
  };
  m.set("setup.build_s",
        median_of(split.setup, is_build) + median_of(split.first, is_build),
        "s");
  const double first_unit = median_of(
      split.first, [&](const std::string& name) { return !is_build(name); });
  m.set("setup.first_unit_s", first_unit, "s");
  if (w.task_span() != nullptr) m.set("sim.first_run_s", first_unit, "s");
  m.set("unit.compute_s",
        median_of(split.unit,
                  [](const std::string& name) { return !is_report(name); }),
        "s");
  m.set("unit.report_s",
        median_of(split.unit,
                  [](const std::string& name) { return is_report(name); }),
        "s");
  m.set("obs.metrics_json_s", median_of(split.unit, only("obs.metrics_json")),
        "s");
  const double unattributed =
      median(split.setup_unattributed) + median(split.unit_unattributed);
  m.set("unattributed_s", unattributed, "s");
  m.set("trace.attributed_share",
        1.0 - unattributed / (traced_setup_s + traced_unit_s), "ratio");
  m.set("trace.overhead", traced_unit_s / untraced_unit_s - 1.0, "ratio");

  // Worker-pool occupancy over the steady units: task spans against
  // threads x the main thread's compute time.
  double compute_total = 0.0;
  for (const auto& mm : split.unit) {
    for (const auto& [name, t] : mm) {
      if (!is_report(name)) compute_total += t;
    }
  }
  const double capacity = static_cast<double>(w.threads()) * compute_total;
  const double units = static_cast<double>(std::max<std::size_t>(n_units, 1));
  double idle_share = 0.0;
  if (w.task_span() != nullptr && capacity > 0.0) {
    idle_share = 1.0 - split.task_busy_s / capacity;
    const double busy = split.task_busy_s / units;
    const double idle = (capacity - split.task_busy_s) / units;
    if (std::strcmp(w.task_span(), "batch.run") == 0) {
      m.set("batch.run_s", median(split.task_s), "s");
      m.set("pool.idle_s", idle, "s");
    } else {
      m.set("shard.task_busy_s", busy, "s");
      m.set("shard.idle_s", idle, "s");
    }
    m.set("pool.chunk_busy_s", split.pool_chunk_busy_s / units, "s");
    m.set("pool.chunks", static_cast<double>(split.n_pool_chunks) / units,
          "count");
    m.set("sim.advance_spans", static_cast<double>(split.n_advance) / units,
          "count");
  }
  m.set("pool.idle_share", idle_share, "ratio");
}

void print_text(const Options& o, const Metrics& m) {
  std::printf("workload %s  seed %llu  %s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced (per-layer)" : "untraced (end-to-end)");
  for (const auto& e : m.entries()) {
    std::printf("  %-34s %16.9g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

void print_json(bool correct, const UnitWork& work, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", work.attempted, work.failed);
  const char* sep = "";
  for (const auto& e : m.entries()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                e.name.c_str(), e.value, e.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int run(Workload& w, const Options& o) {
  Metrics m;
  // The characterization cache is primed once per process: remove the file
  // so this call is a miss (SPICE measure + fit), and every set-up's call
  // after it a hit.
  std::filesystem::remove(o.work / "cells.csv");
  {
    const auto t0 = Clock::now();
    LayerSpan span("cell.library_miss");
    cached_library(o);
    m.set("cell.library_miss_s", seconds_since(t0), "s");
  }

  const double untraced_seconds = o.trace ? 0.5 * o.seconds : o.seconds;
  const Phase plain =
      measure(w, o.trace ? 1 : w.n_setups(), untraced_seconds);
  const double wall = median(plain.unit_s);
  const Tail wall_tail = tail(plain.unit_s);
  const double steady_wall = sum(plain.unit_s);
  const double threads = static_cast<double>(w.threads());
  m.set("setup_s", median(plain.setup_s), "s");
  m.set("wall_s", wall, "s");
  m.set("wall_s_tail", wall_tail.value, "s");
  m.set("wall_s_tail.percentile", wall_tail.percentile, "%");
  m.set("wall_s.samples", static_cast<double>(plain.unit_s.size()), "count");
  m.set("wall_s.min", *std::min_element(plain.unit_s.begin(), plain.unit_s.end()),
        "s");
  m.set("wall_s.max", *std::max_element(plain.unit_s.begin(), plain.unit_s.end()),
        "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("threads", threads, "count");
  if (plain.steady.events > 0) {
    m.set("events_per_s", static_cast<double>(plain.steady.events) / steady_wall,
          "1/s");
    m.set("sim.cpu_ns_per_event",
          1e9 * sum(plain.unit_cpu_s) / static_cast<double>(plain.steady.events),
          "ns");
  }
  if (plain.steady.runs > 0) {
    m.set("runs_per_s", static_cast<double>(plain.steady.runs) / steady_wall,
          "1/s");
  }
  m.set("sim.parallel_efficiency",
        sum(plain.unit_cpu_s) / (threads * steady_wall), "ratio");
  m.set("sim.events_per_cpu_s",
        static_cast<double>(plain.steady.events) / sum(plain.unit_cpu_s),
        "1/s");

  UnitWork work = plain.all;
  bool trace_ok = true;
  if (o.trace) {
    obs::TraceRecorder::start();
    const Phase traced = measure(w, w.n_setups(), 0.5 * o.seconds);
    obs::TraceRecorder::stop();
    const auto snapshot = obs::TraceRecorder::collect();
    obs::write_chrome_trace(snapshot,
                            (o.work / (o.workload + ".trace.json")).string());
    add(work, traced.all);
    const Split split = split_trace(snapshot, w.task_span());
    per_layer_metrics(split, w, traced.unit_s.size(), wall,
                      median(traced.unit_s), median(traced.setup_s), m);
    m.set("trace.dropped", static_cast<double>(snapshot.n_dropped), "count");
    m.set("trace.spans", static_cast<double>(snapshot.events.size()), "count");
    trace_ok = snapshot.n_dropped == 0;
  }
  // Counts of layers a workload does not run read 0.
  engine_counts(0, 0.0, 0, 0, m);
  m.set("shard.load_imbalance", 0.0, "ratio");
  for (const char* name : {"shard.windows", "shard.boundary_transitions",
                           "sta.paths_found", "sta.path_requests_short"}) {
    m.set(name, 0.0, "count");
  }
  w.check();
  w.layer_counts(m);

  m.set("failed_share",
        work.attempted > 0 ? static_cast<double>(work.failed) /
                                 static_cast<double>(work.attempted)
                           : 0.0,
        "ratio");
  const bool correct = w.mismatches().empty() && trace_ok;
  print_text(o, m);
  std::printf("operations: %lld attempted, %lld failed\n", work.attempted,
              work.failed);
  for (const auto& what : w.mismatches()) {
    std::printf("MISMATCH: %s\n", what.c_str());
  }
  if (!trace_ok) std::printf("FAILED: trace ring buffers dropped spans\n");
  std::printf("correctness gate: %s\n", correct ? "pass" : "FAIL");
  std::fflush(stdout);
  print_json(correct, work, m);
  return correct ? 0 : 1;
}

}  // namespace perfbench
