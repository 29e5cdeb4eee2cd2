#include "sta/report.hpp"

#include <unordered_map>

#include "obs/trace_recorder.hpp"

namespace charlie::sta {

bool Report::meets_deadline() const {
  if (nominal.worst_slack < 0.0) return false;
  for (const auto& corner : corners) {
    if (corner.worst_slack < 0.0) return false;
  }
  return true;
}

Report analyze(const cell::NetlistDesc& desc,
               std::shared_ptr<const cell::CellLibrary> library,
               const StaOptions& options) {
  const TimingGraph graph(desc, std::move(library));

  Report report;
  report.endpoints = graph.endpoints();
  report.nets = graph.nets();
  {
    CHARLIE_OBS_SPAN("sta.nominal");
    report.nominal = graph.analyze(graph.nominal_arcs(), options.deadline);
  }
  report.deadline = options.deadline > 0.0 ? options.deadline
                                           : report.nominal.critical_delay;
  {
    CHARLIE_OBS_SPAN("sta.paths", "n_paths",
                     static_cast<long long>(options.n_paths));
    report.paths =
        graph.critical_paths(graph.nominal_arcs(), options.n_paths);
  }

  if (options.n_corners > 0 && options.variation.enabled()) {
    CHARLIE_OBS_SPAN("sta.corners", "n_corners",
                     static_cast<long long>(options.n_corners));
    std::unordered_map<std::string, std::size_t> endpoint_index;
    for (std::size_t i = 0; i < graph.endpoints().size(); ++i) {
      endpoint_index.emplace(graph.endpoints()[i], i);
    }
    std::vector<std::uint64_t> counts(graph.endpoints().size(), 0);
    report.corners.reserve(options.n_corners);
    for (std::size_t c = 0; c < options.n_corners; ++c) {
      const core::ProcessPoint point =
          options.variation.sample(options.base_seed, c);
      const TimingResult r =
          graph.analyze(graph.arcs_at(point), options.deadline);
      report.corners.push_back(
          {point, r.critical_delay, r.worst_slack, r.critical_endpoint});
      ++counts[endpoint_index.at(r.critical_endpoint)];
    }
    report.corner_criticality =
        sim::rank_net_criticality(graph.endpoints(), counts);
  }

  if (options.variation.enabled()) {
    CHARLIE_OBS_SPAN("sta.ssta");
    report.ssta.valid = true;
    report.ssta.delay =
        graph.analyze_ssta(graph.canonical_arcs(options.variation));
    report.ssta.quantiles.reserve(options.quantiles.size());
    for (const double q : options.quantiles) {
      report.ssta.quantiles.emplace_back(q, report.ssta.delay.quantile(q));
    }
    if (options.deadline > 0.0) {
      report.ssta.yield = report.ssta.delay.prob_below(options.deadline);
    }
  }
  return report;
}

}  // namespace charlie::sta
