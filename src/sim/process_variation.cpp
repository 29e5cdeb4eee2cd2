#include "sim/process_variation.hpp"

#include <cmath>
#include <map>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace charlie::sim {

namespace {

// Salt separating the process-sample stream from the stimulus stream of the
// same (seed, run_index) key.
constexpr std::uint64_t kProcessStreamSalt = 0x70726f6373616c74ULL;

void check_sigma(double sigma, const char* name) {
  if (!(sigma >= 0.0) || !std::isfinite(sigma)) {
    throw ConfigError(std::string("process variation: ") + name +
                      " must be finite and >= 0");
  }
}

}  // namespace

void ProcessVariation::validate() const {
  check_sigma(vdd_sigma, "vdd_sigma");
  check_sigma(vth_sigma, "vth_sigma");
  check_sigma(drive_sigma, "drive_sigma");
  if (!(max_sigma > 0.0) || !std::isfinite(max_sigma)) {
    throw ConfigError("process variation: max_sigma must be finite and > 0");
  }
  if (vdd_nominal < 0.0 || !std::isfinite(vdd_nominal)) {
    throw ConfigError("process variation: vdd_nominal must be >= 0");
  }
  if (max_sigma * vdd_sigma >= 1.0 || max_sigma * drive_sigma >= 1.0) {
    throw ConfigError(
        "process variation: the clamped span crosses zero supply or drive "
        "(max_sigma * sigma must stay below 1 for the scale axes)");
  }
}

core::ProcessPoint ProcessVariation::sample(std::uint64_t seed,
                                            std::uint64_t run_index) const {
  util::CounterRng rng(seed ^ kProcessStreamSalt, run_index);
  core::ProcessPoint p;
  // Always draw all three axes: the stream layout (two uniforms per draw)
  // must not depend on which sigmas are active. A zero sigma returns the
  // mean exactly, so inactive axes stay bit-exactly nominal.
  p.vdd_scale = rng.normal_clamped(1.0, vdd_sigma, max_sigma);
  p.vth_shift = rng.normal_clamped(0.0, vth_sigma, max_sigma);
  p.drive_scale = rng.normal_clamped(1.0, drive_sigma, max_sigma);
  return p;
}

ProcessBinder::ProcessBinder(Circuit& circuit, double vdd_override)
    : circuit_(&circuit), vdd_nominal_(vdd_override) {
  // The circuit keeps its hybrid and inertial channels in per-kind arrays
  // in gate order; wire and boxed channels stay nominal.
  std::map<const core::GateModeTables*, std::size_t> rebind_of;
  hybrid_rebind_.reserve(circuit.hybrid_.size());
  for (const HybridGateChannel& hybrid : circuit.hybrid_) {
    const auto& nominal = hybrid.gate_tables();
    const auto [it, inserted] =
        rebind_of.emplace(nominal.get(), rebinds_.size());
    if (inserted) {
      rebinds_.push_back(
          {nominal, std::make_shared<core::GateModeTables>(*nominal)});
    }
    if (vdd_nominal_ == 0.0) {
      vdd_nominal_ = nominal->gate_params().vdd;
    }
    hybrid_rebind_.push_back(it->second);
  }
  inertial_nominal_.reserve(circuit.inertial_.size());
  for (const InertialChannel& inertial : circuit.inertial_) {
    inertial_nominal_.push_back({inertial.delay_up(), inertial.delay_down()});
  }
  if (!inertial_nominal_.empty() && vdd_nominal_ <= 0.0) {
    throw ConfigError(
        "process binder: circuit has inertial channels but no hybrid gate "
        "to read the nominal VDD from; set ProcessVariation::vdd_nominal");
  }
}

void ProcessBinder::bind(const core::ProcessPoint& point) {
  const bool nominal = point.is_nominal();
  if (!nominal) {
    for (TableRebind& rebind : rebinds_) {
      rebind.local->rederive_at(rebind.nominal->gate_params(), point);
    }
  }
  for (std::size_t i = 0; i < hybrid_rebind_.size(); ++i) {
    const TableRebind& rebind = rebinds_[hybrid_rebind_[i]];
    if (nominal) {
      circuit_->hybrid_[i].rebind_tables(rebind.nominal);
    } else {
      circuit_->hybrid_[i].rebind_tables(rebind.local);
    }
  }
  if (!inertial_nominal_.empty()) {
    const double s = point.resistance_scale(vdd_nominal_);
    for (std::size_t i = 0; i < inertial_nominal_.size(); ++i) {
      const NominalDelays& d = inertial_nominal_[i];
      circuit_->inertial_[i].set_delays(d.up * s, d.down * s);
    }
  }
}

}  // namespace charlie::sim
