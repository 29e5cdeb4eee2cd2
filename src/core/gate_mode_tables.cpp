#include "core/gate_mode_tables.hpp"

#include <algorithm>
#include <cmath>

#include "util/diagnostics.hpp"
#include "util/error.hpp"

namespace charlie::core {

ModeTable derive_mode_table(const ode::AffineOde2& mode_ode) {
  ModeTable t;
  t.ode = mode_ode;
  const ode::Eigen2& eig = t.ode.eigen();
  const ode::Vec2& g = t.ode.g();
  bool xp_valid = false;
  if (t.ode.has_equilibrium()) {
    t.xp = t.ode.equilibrium();
    xp_valid = true;
  } else if (g.x == 0.0 && g.y == 0.0) {
    // Source-free singular mode (e.g. the NOR stack fully isolated):
    // xp = 0 trivially solves A xp = -g.
    xp_valid = true;
  } else {
    // Frozen internal node with a driven output (NAND-like stacks): the
    // V_int row of A is zero with g.x = 0, so A xp = -g stays consistent
    // and any solution serves as the particular point of the expansion.
    const ode::Mat2& a = t.ode.a();
    if (a.a == 0.0 && a.b == 0.0 && g.x == 0.0 && a.d != 0.0) {
      t.xp = {0.0, -g.y / a.d};
      xp_valid = true;
    }
  }
  if (xp_valid) t.d = t.xp.y;
  if (eig.kind == ode::EigenKind::kRealDistinct) {
    t.scalar_valid = true;
    t.l1 = eig.lambda1;
    t.l2 = eig.lambda2;
    const ode::Mat2& a = t.ode.a();
    const double inv = 1.0 / (t.l1 - t.l2);
    t.s1 = (a - t.l2 * ode::Mat2::identity()) * inv;
    t.s2 = ode::Mat2::identity() - t.s1;
    t.p1c = t.s1.c;
    t.p1d = t.s1.d;
  } else if (eig.kind == ode::EigenKind::kRealRepeated) {
    // A = lambda I: V_O decays independently of V_int, so the projector
    // row is zero and the whole deviation rides on the l2 exponential.
    t.scalar_valid = true;
    t.l1 = 0.0;
    t.l2 = eig.lambda1;
    t.s1 = ode::Mat2::zero();
    t.s2 = ode::Mat2::identity();
  }
  t.scalar_valid = t.scalar_valid && xp_valid;
  // Guardrail: a non-finite derived quantity (overflowed eigen-solve,
  // near-singular projector) must never reach the per-event hot path.
  // Degrade to the generic scan path, which only needs the ODE itself.
  if (t.scalar_valid &&
      !(std::isfinite(t.xp.x) && std::isfinite(t.xp.y) &&
        std::isfinite(t.d) && std::isfinite(t.l1) && std::isfinite(t.l2) &&
        std::isfinite(t.s1.a) && std::isfinite(t.s1.b) &&
        std::isfinite(t.s1.c) && std::isfinite(t.s1.d))) {
    t.scalar_valid = false;
    ++util::RunCounters::local().nonfinite_guard_trips;
  }
  t.fold1 = t.scalar_valid && t.l1 == 0.0;
  t.fold2 = t.scalar_valid && t.l2 == 0.0;
  return t;
}

TwoExpVo two_exp_expand(const ModeTable& mt, const ode::Vec2& x_ref) {
  TwoExpVo vo;
  vo.valid = mt.scalar_valid;
  if (!mt.scalar_valid) return vo;  // defective/complex: use the generic scan
  const ode::Vec2 dev = x_ref - mt.xp;
  double a1 = mt.p1c * dev.x + mt.p1d * dev.y;
  double a2 = dev.y - a1;
  double d = mt.d;
  // Zero-eigenvalue components are constant and fold into d.
  if (mt.fold1) {
    d += a1;
    a1 = 0.0;
  }
  if (mt.fold2) {
    d += a2;
    a2 = 0.0;
  }
  vo.d = d;
  vo.a1 = a1;
  vo.l1 = mt.l1;
  vo.a2 = a2;
  vo.l2 = mt.l2;
  return vo;
}

GateModeTables::GateModeTables(const GateParams& params) : params_(params) {
  derive_tables();
}

void GateModeTables::derive_tables() {
  params_.validate();
  vth_ = params_.vth();
  tables_.resize(gate_n_states(params_.n_inputs()));
  double slowest = 0.0;
  for (GateState s = 0; s < tables_.size(); ++s) {
    ModeTable& t = tables_[s];
    t = derive_mode_table(gate_mode_ode(params_, s));
    t.steady = gate_mode_steady_state(params_, s, 0.0);
    const ode::Eigen2& eig = t.ode.eigen();
    for (double lambda : {eig.lambda1, eig.lambda2}) {
      if (lambda < 0.0) slowest = std::max(slowest, 1.0 / -lambda);
    }
  }
  horizon_ = 60.0 * slowest;
}

void GateModeTables::rederive(const GateParams& params) {
  if (params.n_inputs() != params_.n_inputs()) {
    throw ConfigError("GateModeTables::rederive: arity mismatch");
  }
  params_ = params;
  derive_tables();
}

void GateModeTables::rederive_at(const GateParams& nominal,
                                 const ProcessPoint& point) {
  if (nominal.n_inputs() != params_.n_inputs()) {
    throw ConfigError("GateModeTables::rederive_at: arity mismatch");
  }
  nominal.derive_for_into(point, params_);
  derive_tables();
}

std::shared_ptr<const GateModeTables> GateModeTables::make(
    const GateParams& params) {
  return std::make_shared<const GateModeTables>(params);
}

}  // namespace charlie::core
