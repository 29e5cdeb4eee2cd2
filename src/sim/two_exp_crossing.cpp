#include "sim/two_exp_crossing.hpp"

#include <algorithm>
#include <cmath>

#include "fit/brent_root.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace charlie::sim {

namespace {

// Root of vo.value(tau) = vth inside the sign-change bracket [lo, hi],
// where flo = vo.value(lo) - vth is already known: safeguarded Newton on
// the two-exponential form (analytic derivative, bisection fallback step)
// started from `seed`, Brent only if Newton fails to converge.
double solve_crossing(const core::TwoExpVo& vo, double vth, double lo,
                      double hi, double flo, double seed) {
  CHARLIE_FAULT_POINT("crossing.solve");
  double a = lo;
  double b = hi;
  double fa = flo;
  if (fa == 0.0) return a;
  // "crossing.newton" fault site: pretend Newton failed so the Brent
  // fallback (and its diagnostics counter) gets exercised.
  if (!CHARLIE_FAULT_BRANCH("crossing.newton")) {
    double x = (seed > a && seed < b) ? seed : 0.5 * (a + b);
    for (int iter = 0; iter < 32; ++iter) {
      const double e1 = std::exp(vo.l1 * x);
      const double e2 = std::exp(vo.l2 * x);
      const double fx = vo.d + vo.a1 * e1 + vo.a2 * e2 - vth;
      if (fx == 0.0) return x;
      if ((fx < 0.0) == (fa < 0.0)) {
        a = x;
        fa = fx;
      } else {
        b = x;
      }
      const double dfx = vo.a1 * vo.l1 * e1 + vo.a2 * vo.l2 * e2;
      double next = dfx != 0.0 ? x - fx / dfx : 0.5 * (a + b);
      // Newton stepping outside the (shrinking) bracket means the local
      // slope extrapolates past the root; bisect instead.
      if (!(next > a && next < b)) next = 0.5 * (a + b);
      // Stop well below the library's 1e-18 s root tolerance target; the
      // final Newton step bounds the remaining error (quadratic
      // convergence).
      if (std::fabs(next - x) <= 1e-17 + 1e-14 * std::fabs(next)) return next;
      x = next;
    }
  }
  // Non-convergence (e.g. near-tangent crossing): Brent on the narrowed
  // bracket is unconditionally robust. Surfaced per run through
  // RunDiagnostics.counters.
  ++util::RunCounters::local().newton_brent_fallbacks;
  auto f = [&](double tau) { return vo.value(tau) - vth; };
  return fit::brent_root(f, a, b);
}

}  // namespace

std::optional<TwoExpCrossing> two_exp_next_crossing(
    const core::TwoExpVo& vo, double vth, double tau0, double horizon) {
  auto f = [&](double tau) { return vo.value(tau) - vth; };
  const double tau_end = tau0 + horizon;
  // Geometric right-expansion on the scalar form (same scheme as
  // fit::expand_bracket_right, but monomorphized: no std::function on the
  // per-event path). Returns the bracket with f(a) so callers don't pay the
  // two exp() of re-evaluating the left edge.
  struct Bracket {
    double a;
    double b;
    double fa;
  };
  auto expand_right = [&](double a, double b) -> std::optional<Bracket> {
    double fa = f(a);
    double fb = f(b);
    while (fa * fb > 0.0) {
      if (b >= tau_end) return std::nullopt;
      const double width = (b - a) * 2.0;
      a = b;
      fa = fb;
      b = std::min(a + width, tau_end);
      fb = f(b);
    }
    return Bracket{a, b, fa};
  };
  // The dominant call site searches from the segment start (tau0 = 0),
  // where exp() is exactly 1 -- no calls needed. Evaluated on the scalar
  // expansion (not the state vector) so the sign agrees bit-for-bit with
  // the f() that solve_crossing and expand_right iterate; a disagreement
  // within rounding error of vth could otherwise hand solve_crossing a
  // non-bracketing interval.
  const double f0 = tau0 == 0.0 ? vo.d + vo.a1 + vo.a2 - vth : f(tau0);
  const double fd = vo.d - vth;  // asymptotic value (l1, l2 <= 0)

  auto found = [&](double tau_lo, double tau_hi, double flo, double seed,
                   bool rising) -> std::optional<TwoExpCrossing> {
    const double tau_c = solve_crossing(vo, vth, tau_lo, tau_hi, flo, seed);
    // Guardrail at the solver boundary: a non-finite crossing time would
    // poison the event heap (NaN comparisons silently reorder events).
    if (!std::isfinite(tau_c)) {
      ++util::RunCounters::local().nonfinite_guard_trips;
      throw ConvergenceError("two-exp crossing: non-finite crossing time");
    }
    return TwoExpCrossing{tau_c, rising};
  };

  // Interior extremum of f: f'(tau*) = 0 with
  // a1 l1 e^{l1 tau} = -a2 l2 e^{l2 tau}.
  double tau_star = -1.0;
  const double p = vo.a1 * vo.l1;
  const double q = vo.a2 * vo.l2;
  if (p != 0.0 && q != 0.0 && vo.l1 != vo.l2 && -q / p > 0.0) {
    tau_star = std::log(-q / p) / (vo.l1 - vo.l2);
  }

  if (tau_star > tau0 && tau_star < tau_end) {
    const double f_star = f(tau_star);
    if (f0 != 0.0 && f0 * f_star < 0.0) {
      return found(tau0, tau_star, f0, 0.5 * (tau0 + tau_star), f_star > 0.0);
    }
    if (f_star == 0.0) {
      // Tangent touch: not a crossing; continue past it.
    }
    // No crossing before the extremum; check the tail beyond it.
    if (f_star * fd < 0.0) {
      // The tail decays monotonically from f_star toward fd: bracket by
      // expansion (the slope vanishes at the extremum, so the analytic
      // seed below does not apply).
      const auto bracket = expand_right(tau_star, tau_star + 1e-12);
      if (bracket.has_value()) {
        return found(bracket->a, bracket->b, bracket->fa,
                     0.5 * (bracket->a + bracket->b), fd > 0.0);
      }
      return std::nullopt;
    }
    return std::nullopt;
  }

  // No interior extremum after tau0: f decays monotonically toward fd.
  if (f0 != 0.0 && f0 * fd < 0.0) {
    // Seed Newton by matching value and slope at tau0 with one decaying
    // exponential toward fd:  f ~ fd + (f0-fd) e^{-r (tau-tau0)}.
    const double df0 =
        tau0 == 0.0 ? vo.a1 * vo.l1 + vo.a2 * vo.l2
                    : vo.a1 * vo.l1 * std::exp(vo.l1 * tau0) +
                          vo.a2 * vo.l2 * std::exp(vo.l2 * tau0);
    const double r = -df0 / (f0 - fd);
    if (r > 0.0) {
      // -fd/(f0-fd) = |fd|/(|f0|+|fd|) is in (0,1), so the seed is finite
      // and to the right of tau0.
      const double seed = tau0 - std::log(-fd / (f0 - fd)) / r;
      const double fend = f(tau_end);
      if (fend == 0.0) {
        // Crossing exactly at the horizon. The expansion path below treats
        // fa*fb == 0 as a closed bracket; match its semantics.
        return TwoExpCrossing{tau_end, fd > 0.0};
      }
      if ((fend < 0.0) != (f0 < 0.0)) {
        return found(tau0, tau_end, f0, seed, fd > 0.0);
      }
      // Crossing beyond the horizon (asymptote grazes the threshold): no
      // event within the search window.
      return std::nullopt;
    }
    const auto bracket = expand_right(tau0, tau0 + 1e-12);
    if (bracket.has_value()) {
      return found(bracket->a, bracket->b, bracket->fa,
                   0.5 * (bracket->a + bracket->b), fd > 0.0);
    }
  }
  return std::nullopt;
}

std::optional<ScanCrossing> scan_vo_crossing(
    const core::ModeTable& mt, double vth, double t_from, double horizon,
    const std::function<double(double)>& vo_at) {
  // Every scan search is a fallback off the analytic two-exp path
  // (defective/complex spectrum or a degraded mode table); count it so a
  // run that silently lost the fast path shows up in its diagnostics.
  ++util::RunCounters::local().scan_fallbacks;
  auto f = [&](double t) { return vo_at(t) - vth; };

  // Scan at a fraction of the fastest rate of the mode, but never more
  // than ~4k evaluations per search window.
  const auto& eig = mt.ode.eigen();
  const double fastest =
      eig.is_real()
          ? std::max(std::fabs(eig.lambda1), std::fabs(eig.lambda2))
          : std::hypot(eig.re, eig.im);
  double step = fastest > 0.0 ? 0.125 / fastest : horizon / 64.0;
  step = std::max(step, horizon / 4096.0);

  double a = t_from;
  double fa = f(a);
  const double t_end = t_from + horizon;
  while (a < t_end) {
    const double b = std::min(a + step, t_end);
    const double fb = f(b);
    if (fa != 0.0 && fa * fb <= 0.0) {
      const double tc = fb == 0.0 ? b : fit::brent_root(f, a, b);
      return ScanCrossing{tc, fb > 0.0 || (fb == 0.0 && fa < 0.0)};
    }
    a = b;
    fa = fb;
  }
  return std::nullopt;
}

}  // namespace charlie::sim
