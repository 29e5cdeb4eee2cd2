#include "core/gate_params.hpp"

#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/units.hpp"

namespace charlie::core {

double GateParams::worst_case_hold() const {
  return topology == GateTopology::kNorLike ? 0.0 : vdd;
}

void GateParams::validate() const {
  const int n = n_inputs();
  if (n < 2 || n > kMaxGateInputs) {
    throw ConfigError("GateParams: n_inputs must be in [2, " +
                      std::to_string(kMaxGateInputs) + "], got " +
                      std::to_string(n));
  }
  if (r_parallel.size() != r_series.size()) {
    throw ConfigError(
        "GateParams: r_series and r_parallel must have one entry per input");
  }
  auto positive = [](double v, const char* name) {
    if (!std::isfinite(v) || v <= 0.0) {
      throw ConfigError(std::string("GateParams: ") + name +
                        " must be positive and finite");
    }
  };
  for (double r : r_series) positive(r, "r_series");
  for (double r : r_parallel) positive(r, "r_parallel");
  positive(c_int, "c_int");
  positive(c_out, "c_out");
  positive(vdd, "vdd");
  if (!std::isfinite(delta_min) || delta_min < 0.0) {
    throw ConfigError("GateParams: delta_min must be non-negative and finite");
  }
}

std::string GateParams::to_string() const {
  std::ostringstream os;
  os << (topology == GateTopology::kNorLike ? "Nor" : "Nand") << n_inputs()
     << "Params{Rs=[";
  for (std::size_t i = 0; i < r_series.size(); ++i) {
    os << (i ? ", " : "") << units::format_resistance(r_series[i]);
  }
  os << "], Rp=[";
  for (std::size_t i = 0; i < r_parallel.size(); ++i) {
    os << (i ? ", " : "") << units::format_resistance(r_parallel[i]);
  }
  os << "], Cint=" << units::format_capacitance(c_int)
     << ", Cout=" << units::format_capacitance(c_out)
     << ", VDD=" << units::format_voltage(vdd)
     << ", delta_min=" << units::format_time(delta_min) << "}";
  return os.str();
}

GateParams GateParams::derive_for(const ProcessPoint& point) const {
  GateParams out;
  derive_for_into(point, out);
  return out;
}

void GateParams::derive_for_into(const ProcessPoint& point,
                                 GateParams& out) const {
  const double s = point.resistance_scale(vdd);
  out.topology = topology;
  out.r_series.resize(r_series.size());
  out.r_parallel.resize(r_parallel.size());
  for (std::size_t i = 0; i < r_series.size(); ++i) {
    out.r_series[i] = r_series[i] * s;
  }
  for (std::size_t i = 0; i < r_parallel.size(); ++i) {
    out.r_parallel[i] = r_parallel[i] * s;
  }
  out.c_int = c_int;
  out.c_out = c_out;
  out.vdd = vdd * point.vdd_scale;
  out.delta_min = delta_min * s;  // pure delay rides the RC product
}

GateParams GateParams::from_nor(const NorParams& p) {
  GateParams g;
  g.topology = GateTopology::kNorLike;
  g.r_series = {p.r1, p.r2};
  g.r_parallel = {p.r3, p.r4};
  g.c_int = p.cn;
  g.c_out = p.co;
  g.vdd = p.vdd;
  g.delta_min = p.delta_min;
  return g;
}

GateParams GateParams::nor2_reference() {
  return from_nor(NorParams::paper_table1());
}

GateParams GateParams::nor3_reference() {
  GateParams g;
  g.topology = GateTopology::kNorLike;
  // Table-I-scale devices, third stack entry slightly larger (deeper chain
  // devices are usually upsized less than ideally in real cells).
  g.r_series = {37.088e3, 40.905e3, 44.926e3};
  g.r_parallel = {45.150e3, 46.912e3, 48.761e3};
  g.c_int = 83.3e-18;  // two junctions lumped into the output-adjacent node
  g.c_out = 617.259e-18;
  g.vdd = 0.8;
  g.delta_min = 18e-12;
  return g;
}

GateParams GateParams::nand2_reference() {
  GateParams g;
  g.topology = GateTopology::kNandLike;
  // Dual of the paper's NOR2: the series stack is the nMOS side.
  g.r_series = {45.150e3, 48.761e3};
  g.r_parallel = {37.088e3, 44.926e3};
  g.c_int = 59.486e-18;
  g.c_out = 617.259e-18;
  g.vdd = 0.8;
  g.delta_min = 18e-12;
  return g;
}

GateParams GateParams::nand3_reference() {
  GateParams g;
  g.topology = GateTopology::kNandLike;
  g.r_series = {45.150e3, 46.912e3, 48.761e3};
  g.r_parallel = {37.088e3, 40.905e3, 44.926e3};
  g.c_int = 83.3e-18;
  g.c_out = 617.259e-18;
  g.vdd = 0.8;
  g.delta_min = 18e-12;
  return g;
}

}  // namespace charlie::core
