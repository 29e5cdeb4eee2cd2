#include "core/gate_parametrize.hpp"

#include <algorithm>
#include <cmath>

#include "core/charlie_delays.hpp"
#include "fit/nelder_mead.hpp"
#include "fit/param_transform.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"

namespace charlie::core {
namespace {

constexpr double kLn2 = 0.6931471805599453;

std::vector<double> to_vector(const GateTargets& t) {
  std::vector<double> v;
  v.reserve(t.fall.size() + t.rise.size() + 2);
  v.insert(v.end(), t.fall.begin(), t.fall.end());
  v.insert(v.end(), t.rise.begin(), t.rise.end());
  v.push_back(t.fall_all);
  v.push_back(t.rise_all);
  return v;
}

std::vector<double> to_vector(const GateSisDelays& d) {
  std::vector<double> v;
  v.reserve(d.fall.size() + d.rise.size() + 2);
  v.insert(v.end(), d.fall.begin(), d.fall.end());
  v.insert(v.end(), d.rise.begin(), d.rise.end());
  v.push_back(d.fall_all);
  v.push_back(d.rise_all);
  return v;
}

void check_targets(const GateTargets& t) {
  const std::size_t n = t.fall.size();
  if (n < 2 || t.rise.size() != n) {
    throw ConfigError(
        "fit_gate_params: need per-input fall and rise targets of equal "
        "size >= 2");
  }
  for (double v : to_vector(t)) {
    if (!(v > 0.0)) {
      throw ConfigError("fit_gate_params: characteristic delays must be > 0");
    }
  }
}

GateParams params_from_vector(GateTopology topology, int n,
                              const std::vector<double>& v, double vdd,
                              double delta_min) {
  GateParams p;
  p.topology = topology;
  p.r_series.assign(v.begin(), v.begin() + n);
  p.r_parallel.assign(v.begin() + n, v.begin() + 2 * n);
  p.c_int = v[2 * n];
  p.c_out = v[2 * n + 1];
  p.vdd = vdd;
  p.delta_min = delta_min;
  return p;
}

// Soft box penalty keeping the fit inside a physically plausible region
// (transistor on-resistances of kOhms to a few hundred kOhms, node
// capacitances of attofarads to femtofarads). Without it a delta_min = 0
// fit drifts to MOhm/1-aF corners whose stiff spectra are numerically
// hostile and physically meaningless.
double box_penalty(const GateParams& p) {
  auto outside = [](double v, double lo, double hi) {
    if (v < lo) return std::log(lo / v);
    if (v > hi) return std::log(v / hi);
    return 0.0;
  };
  double acc = 0.0;
  for (double r : p.r_series) acc += outside(r, 1e3, 400e3);
  for (double r : p.r_parallel) acc += outside(r, 1e3, 400e3);
  acc += outside(p.c_int, 5e-18, 5e-15);
  acc += outside(p.c_out, 50e-18, 50e-15);
  return acc * acc;
}

GateSisDelays with_delta(const GateSisDelays& raw, double delta_min) {
  GateSisDelays out = raw;
  for (double& v : out.fall) v += delta_min;
  for (double& v : out.rise) v += delta_min;
  out.fall_all += delta_min;
  out.rise_all += delta_min;
  return out;
}

}  // namespace

GateFitResult fit_gate_params(GateTopology topology,
                              const GateTargets& measured,
                              const GateFitOptions& options) {
  check_targets(measured);
  const long fallbacks_before = util::RunCounters::local().fit_fallbacks;
  const int n = static_cast<int>(measured.fall.size());
  const auto measured_vec = to_vector(measured);
  const double smallest_target =
      *std::min_element(measured_vec.begin(), measured_vec.end());

  // delta_min via the paper's ratio rule on the parallel-network direction
  // (falling for NOR-like, rising for NAND-like): n equal parallel devices
  // can speed up the simultaneous transition at most n-fold over the
  // slowest SIS one.
  double delta_min;
  if (options.forced_delta_min >= 0.0) {
    delta_min = std::min(options.forced_delta_min, 0.9 * smallest_target);
  } else {
    const bool nor_like = topology == GateTopology::kNorLike;
    const auto& sis = nor_like ? measured.fall : measured.rise;
    const double sis_max = *std::max_element(sis.begin(), sis.end());
    const double simultaneous =
        nor_like ? measured.fall_all : measured.rise_all;
    delta_min = delta_min_for_ratio(sis_max, simultaneous, double(n));
    delta_min = std::clamp(delta_min, 0.0, 0.9 * smallest_target);
  }

  // Targets with the pure delay stripped (floored so a large delta_min can
  // never push a target negative).
  std::vector<double> corrected(measured_vec.size());
  for (std::size_t i = 0; i < measured_vec.size(); ++i) {
    corrected[i] =
        std::max(measured_vec[i] - delta_min, 0.05 * measured_vec[i]);
  }
  GateTargets corr;
  corr.fall.assign(corrected.begin(), corrected.begin() + n);
  corr.rise.assign(corrected.begin() + n, corrected.begin() + 2 * n);
  corr.fall_all = corrected[2 * n];
  corr.rise_all = corrected[2 * n + 1];

  // Seed from single-RC relations: the parallel device of input i sets its
  // own SIS delay (falling for NOR-like, rising for NAND-like); the series
  // chain total comes from the opposite direction, split evenly.
  GateParams seed;
  seed.topology = topology;
  seed.vdd = options.vdd;
  seed.delta_min = 0.0;
  seed.c_out = 600e-18;
  seed.c_int = 0.12 * seed.c_out;
  const bool nor_like = topology == GateTopology::kNorLike;
  const auto& own = nor_like ? corr.fall : corr.rise;
  const auto& chain_dir = nor_like ? corr.rise : corr.fall;
  double chain_mean = 0.0;
  for (int i = 0; i < n; ++i) chain_mean += chain_dir[i];
  chain_mean /= n;
  const double chain_total = chain_mean / (kLn2 * seed.c_out);
  for (int i = 0; i < n; ++i) {
    seed.r_parallel.push_back(own[i] / (kLn2 * seed.c_out));
    seed.r_series.push_back(chain_total / n);
  }

  std::vector<double> flat = seed.r_series;
  flat.insert(flat.end(), seed.r_parallel.begin(), seed.r_parallel.end());
  flat.push_back(seed.c_int);
  flat.push_back(seed.c_out);
  const std::vector<double> x0 = fit::to_log_space(flat);

  auto obj = [&](const std::vector<double>& log_x) {
    const auto x = fit::from_log_space(log_x);
    const GateParams p =
        params_from_vector(topology, n, x, options.vdd, 0.0);
    try {
      const GateModeTables tables(p);
      const auto achieved = to_vector(gate_characteristic_delays(tables));
      double acc = 0.0;
      for (std::size_t i = 0; i < achieved.size(); ++i) {
        const double rel = (achieved[i] - corrected[i]) / corrected[i];
        acc += rel * rel;
      }
      return acc + 0.1 * box_penalty(p);
    } catch (const ConvergenceError&) {
      // Infeasible corner of parameter space: a non-converging delay
      // solve is expected there and becomes a penalty.
      ++util::RunCounters::local().fit_fallbacks;
      return 1e6;
    } catch (const ConfigError&) {
      // Also expected there: log-space steps can underflow a parameter to
      // exactly 0.0, which validation rejects. Anything else
      // (AssertionError, bad_alloc) is a real bug and propagates.
      ++util::RunCounters::local().fit_fallbacks;
      return 1e6;
    }
  };

  fit::NelderMeadOptions nm;
  nm.max_evaluations = options.nelder_mead_evaluations;
  nm.initial_step = 0.25;
  const auto nm_result = fit::nelder_mead(obj, x0, nm);

  GateFitResult result;
  result.params = params_from_vector(
      topology, n, fit::from_log_space(nm_result.x), options.vdd, delta_min);
  result.targets = measured;
  {
    GateParams raw = result.params;
    raw.delta_min = 0.0;
    const GateModeTables tables(raw);
    const auto achieved_raw = gate_characteristic_delays(tables);
    const auto achieved = with_delta(achieved_raw, delta_min);
    result.achieved.fall = achieved.fall;
    result.achieved.rise = achieved.rise;
    result.achieved.fall_all = achieved.fall_all;
    result.achieved.rise_all = achieved.rise_all;
  }
  result.objective = nm_result.f;
  result.evaluations = nm_result.evaluations;

  const auto ach_vec = to_vector(GateSisDelays{
      result.achieved.fall, result.achieved.rise, result.achieved.fall_all,
      result.achieved.rise_all});
  double acc = 0.0;
  for (std::size_t i = 0; i < ach_vec.size(); ++i) {
    const double e = ach_vec[i] - measured_vec[i];
    acc += e * e;
  }
  result.rms_error = std::sqrt(acc / static_cast<double>(ach_vec.size()));
  result.swallowed_fallbacks = static_cast<int>(
      util::RunCounters::local().fit_fallbacks - fallbacks_before);
  return result;
}

FitResult fit_nor_params(const CharacteristicDelays& measured,
                         const GateFitOptions& options) {
  const CharacteristicDelays& m = measured;
  // fit_gate_params rejects non-positive delays before any work.
  if (!(m.fall_minus_inf > m.fall_zero)) {
    throw ConfigError(
        "fit_nor_params: expected fall(-inf) > fall(0) (Charlie speed-up)");
  }
  GateFitOptions opts = options;
  if (opts.forced_delta_min < 0.0) {
    opts.forced_delta_min =
        std::max(0.0, delta_min_for_ratio(m.fall_minus_inf, m.fall_zero));
  }
  // Port A is input 0, port B input 1 (GateParams::from_nor).
  GateTargets targets;
  targets.fall = {m.fall_plus_inf, m.fall_minus_inf};
  targets.rise = {m.rise_minus_inf, m.rise_plus_inf};
  targets.fall_all = m.fall_zero;
  targets.rise_all = m.rise_zero;

  FitResult result;
  result.gate = fit_gate_params(GateTopology::kNorLike, targets, opts);
  const GateParams& g = result.gate.params;
  result.params = {g.r_series[0],   g.r_series[1], g.r_parallel[0],
                   g.r_parallel[1], g.c_int,       g.c_out,
                   g.vdd,           g.delta_min};
  result.achieved = characteristic_delays_exact(result.params);
  return result;
}

}  // namespace charlie::core
