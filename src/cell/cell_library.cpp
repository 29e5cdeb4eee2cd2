#include "cell/cell_library.hpp"

#include <cstdio>
#include <map>
#include <mutex>
#include <numeric>
#include <utility>

#include "core/gate_delay.hpp"
#include "core/gate_parametrize.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/inertial.hpp"
#include "spice/cells.hpp"
#include "spice/characterize.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/text.hpp"

namespace charlie::cell {

namespace {

struct CellInfo {
  const char* name;
  sim::GateKind kind;
  int arity;
  bool hybrid;
};

constexpr CellInfo kRegistry[] = {
    {"INV", sim::GateKind::kInv, 1, false},
    {"BUF", sim::GateKind::kBuf, 1, false},
    {"AND2", sim::GateKind::kAnd2, 2, false},
    {"OR2", sim::GateKind::kOr2, 2, false},
    {"XOR2", sim::GateKind::kXor2, 2, false},
    {"NAND2", sim::GateKind::kNand2, 2, true},
    {"NOR2", sim::GateKind::kNor2, 2, true},
    {"NAND3", sim::GateKind::kNand3, 3, true},
    {"NOR3", sim::GateKind::kNor3, 3, true},
};

using util::to_upper_ascii;

spice::CellKind spice_cell(const std::string& name) {
  if (name == "NOR2") return spice::CellKind::kNor2;
  if (name == "NOR3") return spice::CellKind::kNor3;
  if (name == "NAND2") return spice::CellKind::kNand2;
  CHARLIE_ASSERT_MSG(name == "NAND3", "not a substrate cell");
  return spice::CellKind::kNand3;
}

core::GateTopology topology_of(const std::string& name) {
  return name.starts_with("NAND") ? core::GateTopology::kNandLike
                                  : core::GateTopology::kNorLike;
}

// --- process-wide characterization memo ----------------------------------
// Keyed by (technology fingerprint, cell name): the measure+fit pipeline --
// the expensive part -- runs at most once per key per process, and every
// library built for the same technology shares one mode table per cell.

struct FittedCell {
  core::GateParams params;
  std::shared_ptr<const core::GateModeTables> tables;
};

std::mutex g_cache_mutex;

std::map<std::pair<std::string, std::string>, FittedCell>& fit_cache() {
  static std::map<std::pair<std::string, std::string>, FittedCell> cache;
  return cache;
}

std::map<std::string, spice::InverterDelays>& inverter_cache() {
  static std::map<std::string, spice::InverterDelays> cache;
  return cache;
}

std::map<std::string, long>& run_counts() {
  static std::map<std::string, long> counts;
  return counts;
}

// Per-direction SIS summary of a hybrid cell: the average of the model's
// per-input single-input-switching delays (a SIS channel cannot see which
// input switched), pure delay included.
struct RiseFall {
  double rise = 0.0;
  double fall = 0.0;
};

RiseFall average_sis_delays(const FittedCell& cell) {
  const core::GateSisDelays d =
      core::gate_characteristic_delays(*cell.tables);
  const double dmin = cell.params.delta_min;
  auto mean = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
  };
  return {mean(d.rise) + dmin, mean(d.fall) + dmin};
}

// Assemble the full spec list from the four fitted hybrid cells plus the
// inverter delays; the remaining SIS cells are documented compositions.
std::vector<CellSpec> build_specs(
    const std::map<std::string, FittedCell>& fitted, double inv_rise,
    double inv_fall) {
  const RiseFall nand2 = average_sis_delays(fitted.at("NAND2"));
  const RiseFall nor2 = average_sis_delays(fitted.at("NOR2"));

  std::vector<CellSpec> specs;
  for (const auto& info : kRegistry) {
    CellSpec spec;
    spec.name = info.name;
    spec.kind = info.kind;
    spec.arity = info.arity;
    spec.hybrid = info.hybrid;
    if (info.hybrid) {
      const FittedCell& cell = fitted.at(info.name);
      spec.params = cell.params;
      spec.tables = cell.tables;
    } else if (spec.name == "INV") {
      spec.rise_delay = inv_rise;
      spec.fall_delay = inv_fall;
    } else if (spec.name == "BUF") {
      // Two inverters back to back: either output edge traverses one
      // falling and one rising inverter stage.
      spec.rise_delay = inv_fall + inv_rise;
      spec.fall_delay = inv_fall + inv_rise;
    } else if (spec.name == "AND2") {
      // NAND2 + INV: the AND output rises when the NAND output falls.
      spec.rise_delay = nand2.fall + inv_rise;
      spec.fall_delay = nand2.rise + inv_fall;
    } else if (spec.name == "OR2") {
      // NOR2 + INV, same duality.
      spec.rise_delay = nor2.fall + inv_rise;
      spec.fall_delay = nor2.rise + inv_fall;
    } else {
      CHARLIE_ASSERT(spec.name == "XOR2");
      // Four-NAND2 realization, three NAND2 stages on the critical path.
      const double stage = 0.5 * (nand2.rise + nand2.fall);
      spec.rise_delay = 3.0 * stage;
      spec.fall_delay = 3.0 * stage;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

// --- CellSpec -------------------------------------------------------------

std::unique_ptr<sim::GateChannel> CellSpec::make_mis_channel() const {
  CHARLIE_ASSERT_MSG(hybrid && tables != nullptr,
                     "cell library: not a hybrid MIS cell");
  return std::make_unique<sim::HybridGateChannel>(tables);
}

std::unique_ptr<sim::SisChannel> CellSpec::make_sis_channel() const {
  CHARLIE_ASSERT_MSG(!hybrid, "cell library: not a SIS cell");
  return std::make_unique<sim::InertialChannel>(rise_delay, fall_delay);
}

CellArcTable CellSpec::arc_table() const {
  CellArcTable arcs;
  if (hybrid) {
    CHARLIE_ASSERT_MSG(tables != nullptr, "cell library: hybrid cell "
                                          "without mode tables");
    core::GateArcEnvelope env = core::gate_arc_envelope(*tables);
    arcs.output_rise = std::move(env.rise);
    arcs.output_fall = std::move(env.fall);
    // The event channel applies the pure delay to every input switch before
    // the mode change; arcs carry the total input-to-crossing time.
    for (double& d : arcs.output_rise) d += params.delta_min;
    for (double& d : arcs.output_fall) d += params.delta_min;
  } else {
    arcs.output_rise.assign(static_cast<std::size_t>(arity), rise_delay);
    arcs.output_fall.assign(static_cast<std::size_t>(arity), fall_delay);
  }
  return arcs;
}

// --- CellLibrary ----------------------------------------------------------

const std::vector<std::string>& CellLibrary::cell_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& info : kRegistry) out.emplace_back(info.name);
    return out;
  }();
  return names;
}

CellLibrary CellLibrary::characterize(const spice::Technology& tech) {
  tech.validate();
  const std::string fp = tech.fingerprint();
  std::map<std::string, FittedCell> fitted;
  spice::InverterDelays inv;
  {
    // The lock covers the pipeline runs too: concurrent characterize()
    // calls for the same technology wait instead of duplicating the run.
    std::lock_guard<std::mutex> lock(g_cache_mutex);
    for (const auto& info : kRegistry) {
      if (!info.hybrid) continue;
      const std::string name = info.name;
      auto it = fit_cache().find({fp, name});
      if (it == fit_cache().end()) {
        // Run the pipeline fully before inserting: a throw (e.g. a SPICE
        // convergence failure) must not leave a half-built cache entry
        // behind for later calls to trip over.
        // The spice/core layers sit below obs, so the characterization
        // pipeline is instrumented here at the cell seam: one span per
        // stage, labeled with the cell being characterized.
        spice::GateSisTargets measured;
        {
          obs::ScopedSpan obs_span("cell.measure");
          obs_span.label(name);
          measured = spice::measure_gate_targets(tech, spice_cell(name));
        }
        core::GateTargets targets;
        targets.fall = measured.fall;
        targets.rise = measured.rise;
        targets.fall_all = measured.fall_all;
        targets.rise_all = measured.rise_all;
        core::GateFitOptions opts;
        opts.vdd = tech.vdd;
        opts.nelder_mead_evaluations = 1500;
        core::GateFitResult fit;
        {
          obs::ScopedSpan obs_span("cell.fit");
          obs_span.label(name);
          fit = core::fit_gate_params(topology_of(name), targets, opts);
        }
        FittedCell cell;
        cell.params = fit.params;
        cell.tables = core::GateModeTables::make(fit.params);
        it = fit_cache().emplace(std::pair{fp, name}, std::move(cell)).first;
        ++run_counts()[name];
      }
      fitted[name] = it->second;
    }
    auto it = inverter_cache().find(fp);
    if (it == inverter_cache().end()) {
      const spice::InverterDelays measured =
          spice::measure_inverter_delays(tech);
      it = inverter_cache().emplace(fp, measured).first;
      ++run_counts()["INV"];
    }
    inv = it->second;
  }
  CellLibrary lib;
  lib.fingerprint_ = fp;
  lib.specs_ = build_specs(fitted, inv.rise, inv.fall);
  return lib;
}

CellLibrary CellLibrary::reference() {
  std::map<std::string, FittedCell> fitted;
  const std::pair<const char*, core::GateParams> cells[] = {
      {"NOR2", core::GateParams::nor2_reference()},
      {"NOR3", core::GateParams::nor3_reference()},
      {"NAND2", core::GateParams::nand2_reference()},
      {"NAND3", core::GateParams::nand3_reference()},
  };
  for (const auto& [name, params] : cells) {
    FittedCell cell;
    cell.params = params;
    cell.tables = core::GateModeTables::make(params);
    fitted[name] = std::move(cell);
  }
  CellLibrary lib;
  // Paper-regime inverter: a touch faster than the NOR2 SIS delays, rising
  // edge slower than falling (weaker pMOS), as in the substrate.
  lib.specs_ = build_specs(fitted, /*inv_rise=*/24e-12, /*inv_fall=*/18e-12);
  return lib;
}

CellLibrary CellLibrary::at_corner(const core::ProcessPoint& point) const {
  point.validate();
  if (corner_ != core::ProcessPoint::nominal().fingerprint()) {
    throw ConfigError(
        "cell library: at_corner requires a nominal library (corners do not "
        "compose)");
  }
  if (point.is_nominal()) return *this;

  // The SIS delay scale needs the technology supply; every library carries
  // hybrid cells, whose fitted vdd is that supply.
  double vdd_nominal = 0.0;
  for (const auto& spec : specs_) {
    if (spec.hybrid) {
      vdd_nominal = spec.params.vdd;
      break;
    }
  }
  CHARLIE_ASSERT_MSG(vdd_nominal > 0.0, "library without hybrid cells");
  const double s = point.resistance_scale(vdd_nominal);

  CellLibrary lib;
  lib.fingerprint_ = fingerprint_;
  lib.corner_ = point.fingerprint();
  lib.specs_ = specs_;
  for (auto& spec : lib.specs_) {
    if (spec.hybrid) {
      spec.params = spec.params.derive_for(point);
      spec.tables = core::GateModeTables::make(spec.params);
    } else {
      spec.rise_delay *= s;
      spec.fall_delay *= s;
    }
  }
  return lib;
}

CellLibrary CellLibrary::characterize_cached(const std::string& csv_path,
                                             const spice::Technology& tech) {
  try {
    CellLibrary lib = load_csv(csv_path);
    if (lib.fingerprint_ == tech.fingerprint() &&
        lib.corner_ == core::ProcessPoint::nominal().fingerprint()) {
      return lib;
    }
  } catch (const ConfigError&) {
    // Missing, stale, or malformed cache: fall through and regenerate.
  }
  CellLibrary lib = characterize(tech);
  try {
    lib.save_csv(csv_path);
  } catch (const ConfigError&) {
    // An unwritable cache path degrades to characterize-per-process (the
    // in-memory memo still applies); it must not discard the library.
  }
  return lib;
}

void CellLibrary::save_csv(const std::string& path) const {
  util::CsvWriter w(path, {"cell", "field", "index", "value"});
  // Schema version first: load_csv requires an exact match, so files from
  // an older schema (or written before versioning existed) regenerate
  // instead of silently loading with missing fields.
  w.row_text({"_format", "version", "0", std::to_string(kCsvFormatVersion)});
  w.row_text({"_tech", "fingerprint", "0", fingerprint_});
  w.row_text({"_corner", "fingerprint", "0", corner_});
  for (const auto& spec : specs_) {
    if (spec.hybrid) {
      const core::GateParams& p = spec.params;
      w.row_text({spec.name, "topology", "0",
                  p.topology == core::GateTopology::kNandLike ? "1" : "0"});
      for (std::size_t i = 0; i < p.r_series.size(); ++i) {
        w.row_text({spec.name, "r_series", std::to_string(i),
                    format_value(p.r_series[i])});
      }
      for (std::size_t i = 0; i < p.r_parallel.size(); ++i) {
        w.row_text({spec.name, "r_parallel", std::to_string(i),
                    format_value(p.r_parallel[i])});
      }
      w.row_text({spec.name, "c_int", "0", format_value(p.c_int)});
      w.row_text({spec.name, "c_out", "0", format_value(p.c_out)});
      w.row_text({spec.name, "vdd", "0", format_value(p.vdd)});
      w.row_text({spec.name, "delta_min", "0", format_value(p.delta_min)});
    } else {
      w.row_text({spec.name, "rise", "0", format_value(spec.rise_delay)});
      w.row_text({spec.name, "fall", "0", format_value(spec.fall_delay)});
    }
  }
}

CellLibrary CellLibrary::load_csv(const std::string& path) {
  const std::string text = util::read_text_file(path);

  // cell -> field -> index -> value text. The value is everything after the
  // third comma, so the fingerprint may contain any separator but a comma.
  std::map<std::string, std::map<std::string, std::map<long, std::string>>>
      rows;
  int line_no = 0;
  std::size_t pos = 0;
  auto fail = [&](const std::string& why) -> void {
    throw ConfigError("cell library " + path + ":" +
                      std::to_string(line_no) + ": " + why);
  };
  while (pos < text.size()) {
    const auto eol = text.find('\n', pos);
    std::string line = eol == std::string::npos
                           ? text.substr(pos)
                           : text.substr(pos, eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line_no == 1) {
      if (line != "cell,field,index,value") fail("bad header");
      continue;
    }
    const auto c1 = line.find(',');
    const auto c2 = c1 == std::string::npos ? c1 : line.find(',', c1 + 1);
    const auto c3 = c2 == std::string::npos ? c2 : line.find(',', c2 + 1);
    if (c3 == std::string::npos) fail("expected cell,field,index,value");
    const std::string cell = line.substr(0, c1);
    const std::string field = line.substr(c1 + 1, c2 - c1 - 1);
    const long index = util::parse_long_field(
        line.substr(c2 + 1, c3 - c2 - 1), path + " index");
    if (!rows[cell][field].emplace(index, line.substr(c3 + 1)).second) {
      fail("duplicate entry " + cell + "/" + field + "[" +
           std::to_string(index) + "]");
    }
  }

  auto lookup = [&rows, &path](const std::string& cell,
                               const std::string& field,
                               long index) -> const std::string& {
    const auto ci = rows.find(cell);
    if (ci != rows.end()) {
      const auto fi = ci->second.find(field);
      if (fi != ci->second.end()) {
        const auto ii = fi->second.find(index);
        if (ii != fi->second.end()) return ii->second;
      }
    }
    throw ConfigError("cell library " + path + ": missing " + cell + "/" +
                      field + "[" + std::to_string(index) + "]");
  };
  auto number = [&](const std::string& cell, const std::string& field,
                    long index) {
    return util::parse_double_field(lookup(cell, field, index),
                                    path + " " + cell + "/" + field);
  };

  const long version =
      util::parse_long_field(lookup("_format", "version", 0), path + " version");
  if (version != kCsvFormatVersion) {
    throw ConfigError("cell library " + path + ": schema version " +
                      std::to_string(version) + " (expected " +
                      std::to_string(kCsvFormatVersion) + ")");
  }
  const std::string fingerprint = lookup("_tech", "fingerprint", 0);
  const std::string corner = lookup("_corner", "fingerprint", 0);

  std::map<std::string, FittedCell> fitted;
  double inv_rise = 0.0;
  double inv_fall = 0.0;
  for (const auto& info : kRegistry) {
    const std::string name = info.name;
    if (info.hybrid) {
      FittedCell cell;
      cell.params.topology = number(name, "topology", 0) != 0.0
                                 ? core::GateTopology::kNandLike
                                 : core::GateTopology::kNorLike;
      for (long i = 0; i < info.arity; ++i) {
        cell.params.r_series.push_back(number(name, "r_series", i));
        cell.params.r_parallel.push_back(number(name, "r_parallel", i));
      }
      cell.params.c_int = number(name, "c_int", 0);
      cell.params.c_out = number(name, "c_out", 0);
      cell.params.vdd = number(name, "vdd", 0);
      cell.params.delta_min = number(name, "delta_min", 0);
      cell.tables = core::GateModeTables::make(cell.params);  // validates
      fitted[name] = std::move(cell);
    } else if (name == "INV") {
      inv_rise = number(name, "rise", 0);
      inv_fall = number(name, "fall", 0);
    }
  }

  CellLibrary lib;
  lib.fingerprint_ = fingerprint;
  lib.corner_ = corner;
  lib.specs_ = build_specs(fitted, inv_rise, inv_fall);
  // build_specs re-derives the composite SIS cells; the stored rows take
  // precedence so explicit edits (set_sis_delays before save, or a
  // hand-tuned cache file) survive a round trip.
  for (auto& spec : lib.specs_) {
    if (!spec.hybrid && spec.name != "INV") {
      spec.rise_delay = number(spec.name, "rise", 0);
      spec.fall_delay = number(spec.name, "fall", 0);
    }
  }
  return lib;
}

const CellSpec* CellLibrary::find_canonical(
    const std::string& canonical) const {
  for (const auto& spec : specs_) {
    if (spec.name == canonical) return &spec;
  }
  return nullptr;
}

const CellSpec* CellLibrary::find(const std::string& name) const {
  return find_canonical(to_upper_ascii(name));
}

const CellSpec& CellLibrary::spec(const std::string& name) const {
  const CellSpec* spec = find(name);
  if (spec == nullptr) {
    throw ConfigError("cell library: unknown cell \"" + name + "\"");
  }
  return *spec;
}

void CellLibrary::set_sis_delays(const std::string& name, double rise,
                                 double fall) {
  const std::string canonical = to_upper_ascii(name);
  for (auto& spec : specs_) {
    if (spec.name != canonical) continue;
    if (spec.hybrid) {
      throw ConfigError("cell library: " + canonical +
                        " is a hybrid MIS cell, not a SIS cell");
    }
    spec.rise_delay = rise;
    spec.fall_delay = fall;
    return;
  }
  throw ConfigError("cell library: unknown cell \"" + name + "\"");
}

long CellLibrary::n_characterization_runs(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_cache_mutex);
  const auto it = run_counts().find(to_upper_ascii(name));
  return it == run_counts().end() ? 0 : it->second;
}

void CellLibrary::reset_characterization_cache() {
  std::lock_guard<std::mutex> lock(g_cache_mutex);
  fit_cache().clear();
  inverter_cache().clear();
  run_counts().clear();
}

}  // namespace charlie::cell
