// Static timing report CLI: netlist in, slack table + critical paths +
// corner/SSTA screening out.
//
//   sta_report --netlist examples/netlists/c432.net --deadline 5e-9
//   sta_report --netlist big.net --deadline 2e-9 --corners 64
//              --sigma-vdd 0.05 --sigma-vth 0.02 --sigma-drive 0.05
//
// Flags:
//   --netlist FILE    netlist to analyze (docs/netlist_format.md); required
//   --deadline T      timing deadline [s]; 0 (default) = report only
//   --paths K         critical paths to print (default 5)
//   --corners N       sampled process corners (default 0 = nominal only)
//   --seed S          corner sample seed (default 1; corner c matches
//                     Monte-Carlo run c of a BatchRunner with base_seed S)
//   --sigma-vdd/--sigma-vth/--sigma-drive
//                     process sigmas (enable corners and SSTA)
//   --all-nets        print the full per-net slack table, worst first
//   --trace-out FILE  arm the execution tracer around the analysis and
//                     write Chrome trace-event JSON (Perfetto-loadable)
//   --metrics-out FILE
//                     write the report's obs::MetricsRegistry as JSON
//   --vcd-out FILE    additionally run one seeded event-engine simulation
//                     of the netlist and dump the waveforms of its inputs
//                     and observed nets as VCD (GTKWave-loadable;
//                     docs/observability.md)
//
// Exit status: 0 when the design meets the deadline at nominal and at every
// sampled corner, 1 on negative slack (or bad arguments) -- so CI can gate
// on it directly. The report is conservative: an exit of 0 bounds every
// delay the event engine can produce at the analyzed points (docs/sta.md).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "cell/run_export.hpp"
#include "obs/metrics.hpp"
#include "sim/circuit_builder.hpp"
#include "sta/report.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

using namespace charlie;

namespace {

std::string format_path(const sta::CriticalPath& path) {
  std::string out;
  for (std::size_t i = 0; i < path.steps.size(); ++i) {
    const sta::PathStep& step = path.steps[i];
    if (i > 0) out += " -> ";
    out += step.net;
    out += step.rising ? "^" : "v";
  }
  return out;
}

// The report's shape and distributions as metrics (docs/observability.md).
obs::MetricsRegistry report_metrics(const sta::Report& report) {
  obs::MetricsRegistry metrics;
  metrics.add("sta.endpoints", static_cast<long long>(report.endpoints.size()));
  metrics.add("sta.paths", static_cast<long long>(report.paths.size()));
  metrics.add("sta.corners", static_cast<long long>(report.corners.size()));
  for (const sta::NetTiming& t : report.nominal.nets) {
    metrics.observe("sta.arrival", std::max(t.arrival_rise, t.arrival_fall));
  }
  for (const sta::CornerSummary& corner : report.corners) {
    metrics.observe("sta.corner_delay", corner.critical_delay);
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Cli cli(argc, argv);
    const std::string netlist_path = cli.get_string("--netlist", "");
    sta::StaOptions options;
    options.deadline = cli.get_double("--deadline", 0.0);
    options.n_paths = cli.get_count("--paths", 5);
    options.n_corners = cli.get_count("--corners", 0);
    options.base_seed = static_cast<std::uint64_t>(cli.get_int("--seed", 1));
    options.variation.vdd_sigma = cli.get_double("--sigma-vdd", 0.0);
    options.variation.vth_sigma = cli.get_double("--sigma-vth", 0.0);
    options.variation.drive_sigma = cli.get_double("--sigma-drive", 0.0);
    const bool all_nets = cli.has_flag("--all-nets");
    const cell::RunExport exports{cli.get_string("--trace-out", ""),
                                  cli.get_string("--metrics-out", ""),
                                  cli.get_string("--vcd-out", "")};
    cli.finish();
    if (netlist_path.empty()) {
      throw ConfigError("--netlist is required");
    }

    const cell::NetlistDesc desc = cell::read_netlist_file(netlist_path);
    const auto library = std::make_shared<const cell::CellLibrary>(
        cell::CellLibrary::reference());
    exports.arm();
    const sta::Report report = sta::analyze(desc, library, options);

    // One seeded event-engine run of the same netlist for the VCD: the
    // waveforms that realize (one sample of) the delays the report bounds.
    std::unique_ptr<sim::Circuit> circuit;
    sim::Circuit::SimResult run;
    if (!exports.vcd_out.empty()) {
      circuit = sim::CircuitBuilder(library).build(desc);
      const cell::SeededStimulus stimulus =
          cell::seeded_stimulus(circuit->n_inputs(), 64, options.base_seed);
      run = circuit->simulate(stimulus.traces, 0.0, stimulus.t_end);
      if (!run.ok()) {
        std::fprintf(stderr, "sta_report: --vcd-out run: %s\n",
                     run.diagnostics.summary().c_str());
        return 1;
      }
    }
    exports.write(report_metrics(report), desc,
                  [&](const std::string& net) -> const waveform::DigitalTrace& {
                    return run.trace(circuit->find_net(net));
                  });

    std::printf("netlist          : %s (%zu gates, %zu wires, %zu inputs, "
                "%zu outputs)\n",
                netlist_path.c_str(), desc.n_gates(), desc.n_wires(),
                desc.inputs.size(), desc.outputs.size());
    std::printf("critical delay   : %s (endpoint %s %s)\n",
                units::format_time(report.nominal.critical_delay).c_str(),
                report.nominal.critical_endpoint.c_str(),
                report.nominal.critical_rising ? "rising" : "falling");
    std::printf("deadline         : %s%s\n",
                units::format_time(report.deadline).c_str(),
                options.deadline > 0.0 ? "" : " (= critical delay; "
                                              "unconstrained)");
    std::printf("worst slack      : %s\n",
                units::format_time(report.nominal.worst_slack).c_str());

    std::printf("critical paths   :\n");
    for (std::size_t i = 0; i < report.paths.size(); ++i) {
      std::printf("  #%zu %10s : %s\n", i + 1,
                  units::format_time(report.paths[i].delay).c_str(),
                  format_path(report.paths[i]).c_str());
    }

    // Slack table: endpoints by default, every net with --all-nets; worst
    // slack first, declaration order on ties.
    const std::set<std::string> endpoint_set(report.endpoints.begin(),
                                             report.endpoints.end());
    const std::vector<sta::NetTiming>& timing = report.nominal.nets;
    std::vector<std::size_t> rows;
    for (std::size_t n = 0; n < timing.size(); ++n) {
      if (all_nets || endpoint_set.count(report.nets[n]) > 0) {
        rows.push_back(n);
      }
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [&](std::size_t a, std::size_t b) {
                       return timing[a].slack < timing[b].slack;
                     });
    std::printf("slack table      : %zu net%s (%s)\n", rows.size(),
                rows.size() == 1 ? "" : "s",
                all_nets ? "all" : "endpoints");
    std::printf("  %-16s %12s %12s %12s\n", "net", "arr rise", "arr fall",
                "slack");
    for (const std::size_t n : rows) {
      std::printf("  %-16s %12s %12s %12s\n", report.nets[n].c_str(),
                  units::format_time(timing[n].arrival_rise).c_str(),
                  units::format_time(timing[n].arrival_fall).c_str(),
                  units::format_time(timing[n].slack).c_str());
    }

    if (!report.corners.empty()) {
      double lo = report.corners.front().critical_delay;
      double hi = lo;
      double sum = 0.0;
      double worst_slack = report.corners.front().worst_slack;
      for (const sta::CornerSummary& corner : report.corners) {
        lo = std::min(lo, corner.critical_delay);
        hi = std::max(hi, corner.critical_delay);
        sum += corner.critical_delay;
        worst_slack = std::min(worst_slack, corner.worst_slack);
      }
      std::printf("corners          : %zu sampled (seed %llu), critical "
                  "delay %s..%s (mean %s), worst slack %s\n",
                  report.corners.size(),
                  static_cast<unsigned long long>(options.base_seed),
                  units::format_time(lo).c_str(),
                  units::format_time(hi).c_str(),
                  units::format_time(sum / static_cast<double>(
                                               report.corners.size()))
                      .c_str(),
                  units::format_time(worst_slack).c_str());
      std::printf("criticality      :");
      for (const auto& [net, count] : report.corner_criticality) {
        std::printf(" %s=%llu", net.c_str(),
                    static_cast<unsigned long long>(count));
      }
      std::printf("\n");
    }

    if (report.ssta.valid) {
      std::printf("ssta delay       : mean %s sigma %s (vdd %s, vth %s, "
                  "drive %s, rand %s)\n",
                  units::format_time(report.ssta.delay.mean).c_str(),
                  units::format_time(report.ssta.delay.sigma()).c_str(),
                  units::format_time(report.ssta.delay.sens[0]).c_str(),
                  units::format_time(report.ssta.delay.sens[1]).c_str(),
                  units::format_time(report.ssta.delay.sens[2]).c_str(),
                  units::format_time(report.ssta.delay.sigma_rand).c_str());
      for (const auto& [q, value] : report.ssta.quantiles) {
        std::printf("  q%-5.3g         : %s\n", 100.0 * q,
                    units::format_time(value).c_str());
      }
      if (options.deadline > 0.0) {
        std::printf("yield (ssta)     : %.2f%% at %s\n",
                    100.0 * report.ssta.yield,
                    units::format_time(report.deadline).c_str());
      }
    }

    const bool ok = options.deadline <= 0.0 || report.meets_deadline();
    std::printf("verdict          : %s\n",
                options.deadline <= 0.0
                    ? "unconstrained"
                    : (ok ? "MEETS deadline" : "VIOLATES deadline"));
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sta_report: %s\n", e.what());
    return 1;
  }
}
