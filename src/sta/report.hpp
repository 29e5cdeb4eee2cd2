// One-call STA report: the screening front door.
//
// analyze() wraps the TimingGraph passes into the report a designer (or
// tools/sta_report, or a test) consumes: nominal arrival/slack and the
// top-K critical paths, per-sampled-corner critical delays with an
// endpoint-criticality tally, and the canonical SSTA delay distribution
// with quantiles and timing yield. Corner c uses exactly the process point
// sim::ProcessVariation::sample(base_seed, c) -- the same sample Monte-
// Carlo run c of a BatchRunner with that base_seed draws -- so STA-vs-sim
// comparisons line up run for run.
//
// The intended workflow (docs/sta.md, docs/statistical_timing.md): screen
// a design with analyze() first -- milliseconds, conservative -- and spend
// the Monte-Carlo batch budget only on designs whose STA yield is
// marginal.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "core/process_point.hpp"
#include "sim/net_criticality.hpp"
#include "sim/process_variation.hpp"
#include "sta/canonical.hpp"
#include "sta/timing_graph.hpp"

namespace charlie::sta {

struct StaOptions {
  // Timing deadline [s]; 0 = unconstrained (slack is measured against the
  // nominal critical delay, and no yield is reported).
  double deadline = 0.0;
  std::size_t n_paths = 5;    // critical paths to enumerate
  // Sampled process corners for corner STA; corner c = variation.sample(
  // base_seed, c), matching BatchRunner run c under the same base_seed.
  std::size_t n_corners = 0;
  std::uint64_t base_seed = 1;
  sim::ProcessVariation variation;  // axes for corners and SSTA
  std::vector<double> quantiles = {0.5, 0.95, 0.99};
};

/// One sampled corner's deterministic STA summary.
struct CornerSummary {
  core::ProcessPoint point;
  double critical_delay = 0.0;
  double worst_slack = 0.0;
  std::string critical_endpoint;
};

/// Canonical SSTA summary; valid only when variation is enabled.
struct SstaSummary {
  bool valid = false;
  Canonical delay;  // statistical max over all endpoints
  std::vector<std::pair<double, double>> quantiles;  // (q, delay)
  double yield = 0.0;  // P(delay <= deadline); 0 when no deadline
};

struct Report {
  double deadline = 0.0;  // effective deadline slack was measured against
  std::vector<std::string> endpoints;  // analyzed endpoint nets
  std::vector<std::string> nets;       // TimingGraph::nets(): row names
  TimingResult nominal;                // nominal.nets[n] is nets[n]
  std::vector<CriticalPath> paths;
  std::vector<CornerSummary> corners;
  // Endpoint criticality across the sampled corners (shared presentation
  // with BatchResult::criticality_ranking).
  std::vector<sim::NetCriticality> corner_criticality;
  SstaSummary ssta;

  /// Non-negative worst slack at nominal and at every sampled corner.
  bool meets_deadline() const;
};

/// Full STA pass over `desc` at `library`'s process point. Throws
/// ConfigError for the same netlist/library problems CircuitBuilder::build
/// rejects, and for a netlist with no endpoint (TimingGraph).
Report analyze(const cell::NetlistDesc& desc,
               std::shared_ptr<const cell::CellLibrary> library,
               const StaOptions& options);

}  // namespace charlie::sta
