#include "core/process_point.hpp"

#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace charlie::core {

void ProcessPoint::validate() const {
  if (!(vdd_scale > 0.0) || !std::isfinite(vdd_scale)) {
    throw ConfigError("ProcessPoint: vdd_scale must be positive and finite");
  }
  if (!(drive_scale > 0.0) || !std::isfinite(drive_scale)) {
    throw ConfigError("ProcessPoint: drive_scale must be positive and finite");
  }
  if (!std::isfinite(vth_shift)) {
    throw ConfigError("ProcessPoint: vth_shift must be finite");
  }
}

double ProcessPoint::resistance_scale(double vdd_nominal) const {
  validate();
  if (!(vdd_nominal > 0.0)) {
    throw ConfigError("ProcessPoint: vdd_nominal must be positive");
  }
  // Same expression shape for both overdrives so the nominal point yields
  // exactly 1.0 (vdd_scale == 1 makes the products bit-identical).
  const double overdrive_nominal =
      vdd_nominal - kDeviceVtFraction * vdd_nominal;
  const double overdrive =
      vdd_scale * vdd_nominal - kDeviceVtFraction * vdd_nominal - vth_shift;
  if (!(overdrive > 0.0)) {
    throw ConfigError(
        "ProcessPoint: overdrive closed (vdd_scale/vth_shift push the "
        "devices out of conduction); point is outside the model's validity "
        "region");
  }
  return overdrive_nominal / (drive_scale * overdrive);
}

std::string ProcessPoint::fingerprint() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "vdd_scale=%.17g;vth_shift=%.17g;drive=%.17g",
                vdd_scale, vth_shift, drive_scale);
  return buf;
}

}  // namespace charlie::core
