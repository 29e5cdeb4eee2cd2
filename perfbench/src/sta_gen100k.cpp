// sta_gen100k: statistical timing screen of the 100k-gate netlist.
//
// The seed's generated netlist is parsed and its TimingGraph built; a unit
// is the screening pass sta::analyze performs, called pass by pass so each
// is timed on its own: nominal arrival/slack, the top-5 critical paths, 32
// sampled process corners (arc re-extraction at the corner + propagation),
// canonical arcs + one-pass SSTA, and the report's metrics JSON. Single
// threaded; no event engine runs. Arc extraction (CellLibrary::at_corner)
// and the path search are the loads only this workload carries.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cell/netlist.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "sta/report.hpp"
#include "sta/timing_graph.hpp"

namespace perfbench {

namespace {

using namespace charlie;

constexpr std::size_t kPaths = 5;
constexpr std::size_t kCorners = 32;

struct Screen {
  sta::TimingResult nominal;
  std::vector<sta::CriticalPath> paths;
  std::vector<double> corner_delays;
  sta::Canonical ssta;
};

class StaGen100k final : public Workload {
 public:
  explicit StaGen100k(const Options& options)
      : options_(options),
        netlist_(generated_netlist(options)),
        metrics_path_(options.work / "sta_gen100k.metrics.json") {
    variation_.vdd_sigma = 0.05;
    variation_.vth_sigma = 0.02;
    variation_.drive_sigma = 0.05;
  }

  std::size_t threads() const override { return 1; }
  const char* task_span() const override { return nullptr; }
  std::size_t n_setups() const override { return 2; }

  void teardown() override {
    corner_arcs_ = {};
    canonical_arcs_ = {};
    graph_.reset();
    library_.reset();
    desc_ = {};
    first_ = {};
  }

  void setup() override {
    {
      LayerSpan span("cell.parse");
      desc_ = cell::read_netlist_file(netlist_.string());
    }
    {
      LayerSpan span("cell.library_hit");
      library_ = cached_library(options_);
    }
    {
      LayerSpan span("sta.graph_build");
      graph_ = std::make_unique<sta::TimingGraph>(desc_, library_);
    }
    has_first_ = false;
  }

  UnitWork run_unit() override {
    Screen s;
    {
      LayerSpan span("sta.nominal");
      s.nominal = graph_->analyze(graph_->nominal_arcs(), 0.0);
    }
    {
      LayerSpan span("sta.paths");
      s.paths = graph_->critical_paths(graph_->nominal_arcs(), kPaths);
    }
    // Arc sets are held in members, so releasing the previous one is part
    // of the span that replaces it rather than unattributed time.
    for (std::size_t c = 0; c < kCorners; ++c) {
      const core::ProcessPoint point = variation_.sample(options_.seed, c);
      {
        LayerSpan span("sta.corner_arcs");
        corner_arcs_ = graph_->arcs_at(point);
      }
      LayerSpan span("sta.corner_analyze");
      s.corner_delays.push_back(
          graph_->analyze(corner_arcs_, 0.0).critical_delay);
    }
    {
      LayerSpan span("sta.canonical_arcs");
      canonical_arcs_ = graph_->canonical_arcs(variation_);
    }
    {
      LayerSpan span("sta.ssta");
      s.ssta = graph_->analyze_ssta(canonical_arcs_);
    }
    {
      // The report registry tools/sta_report exports.
      LayerSpan span("obs.metrics_json");
      obs::MetricsRegistry metrics;
      metrics.add("sta.endpoints",
                  static_cast<long long>(graph_->endpoints().size()));
      metrics.add("sta.paths", static_cast<long long>(s.paths.size()));
      metrics.add("sta.corners", static_cast<long long>(kCorners));
      for (const sta::NetTiming& t : s.nominal.nets) {
        metrics.observe("sta.arrival",
                        std::max(t.arrival_rise, t.arrival_fall));
      }
      for (const double d : s.corner_delays) {
        metrics.observe("sta.corner_delay", d);
      }
      metrics.write_json(metrics_path_.string());
    }
    last_ = std::move(s);
    // Operations: the nominal pass, the path search, each corner and SSTA.
    // A path search returning fewer than kPaths paths completes normally;
    // it is counted in sta.path_requests_short.
    UnitWork u;
    u.attempted = static_cast<long long>(3 + kCorners);
    return u;
  }

  void verify_unit() override {
    for (std::size_t i = 1; i < last_.paths.size(); ++i) {
      if (last_.paths[i].delay > last_.paths[i - 1].delay) {
        mismatch("critical paths out of non-increasing delay order");
        break;
      }
    }
    if (!has_first_) {
      first_ = std::move(last_);
      last_ = {};
      has_first_ = true;
      return;
    }
    if (last_.nominal.critical_delay != first_.nominal.critical_delay ||
        last_.corner_delays != first_.corner_delays ||
        last_.ssta.mean != first_.ssta.mean ||
        last_.ssta.sigma() != first_.ssta.sigma() ||
        last_.paths.size() != first_.paths.size()) {
      mismatch("repeated screen differs from the first");
    }
    last_ = {};
  }

  void check() override {
    // sta::analyze over the same inputs (paths skipped: compared above) must
    // reproduce the pass-by-pass screen exactly.
    sta::StaOptions options;
    options.n_paths = 0;
    options.n_corners = kCorners;
    options.base_seed = options_.seed;
    options.variation = variation_;
    const sta::Report report = sta::analyze(desc_, library_, options);
    if (report.nominal.critical_delay != first_.nominal.critical_delay) {
      mismatch("nominal critical delay differs from sta::analyze");
    }
    for (std::size_t c = 0; c < kCorners; ++c) {
      if (report.corners[c].critical_delay != first_.corner_delays[c]) {
        mismatch("corner " + std::to_string(c) +
                 " critical delay differs from sta::analyze");
        break;
      }
    }
    if (report.ssta.delay.mean != first_.ssta.mean ||
        report.ssta.delay.sigma() != first_.ssta.sigma()) {
      mismatch("SSTA delay differs from sta::analyze");
    }
  }

  void layer_counts(Metrics& out) const override {
    out.set("sta.paths_requested", static_cast<double>(kPaths), "count");
    out.set("sta.paths_found", static_cast<double>(first_.paths.size()),
            "count");
    out.set("sta.path_requests_short",
            first_.paths.size() < kPaths ? 1.0 : 0.0, "count");
  }

 private:
  Options options_;
  std::filesystem::path netlist_;
  std::filesystem::path metrics_path_;
  sim::ProcessVariation variation_;
  cell::NetlistDesc desc_;
  std::shared_ptr<const cell::CellLibrary> library_;
  std::unique_ptr<sta::TimingGraph> graph_;
  sta::ArcSet corner_arcs_;
  sta::CanonicalArcSet canonical_arcs_;
  Screen last_;
  Screen first_;
  bool has_first_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_sta_gen100k(const Options& options) {
  return std::make_unique<StaGen100k>(options);
}

}  // namespace perfbench
