#include "core/gate_delay.hpp"

#include <algorithm>

#include "fit/brent_root.hpp"
#include "util/error.hpp"

namespace charlie::core {

double mode_table_crossing(const ModeTable& mt, const ode::Vec2& x_ref,
                           double tau_end, double vth, bool rising) {
  const TwoExpVo sc = two_exp_expand(mt, x_ref);
  auto vo = [&](double tau) {
    return sc.valid ? sc.value(tau) : mode_state_at(mt, x_ref, tau).y;
  };
  constexpr int kSteps = 256;
  const double step = tau_end / kSteps;
  if (!(step > 0.0)) return -1.0;
  double a = 0.0;
  double fa = vo(0.0) - vth;
  for (int k = 1; k <= kSteps; ++k) {
    const double b = k == kSteps ? tau_end : k * step;
    const double fb = vo(b) - vth;
    const bool matches = rising ? (fa < 0.0 && fb >= 0.0)
                                : (fa > 0.0 && fb <= 0.0);
    if (matches) {
      if (fb == 0.0) return b;
      return fit::brent_root([&](double tau) { return vo(tau) - vth; }, a, b);
    }
    a = b;
    fa = fb;
  }
  return -1.0;
}

double gate_output_crossing(const GateModeTables& tables, GateState s0,
                            double v_int_hold,
                            std::span<const GateInputEvent> events,
                            bool rising) {
  const GateParams& p = tables.gate_params();
  GateState s = s0;
  ode::Vec2 x = gate_mode_steady_state(p, s, v_int_hold);
  double t_seg = 0.0;
  const double vth = tables.vth();

  auto search_segment = [&](const ModeTable& mt, double tau_end) {
    const double tau = mode_table_crossing(mt, x, tau_end, vth, rising);
    return tau >= 0.0 ? t_seg + tau : -1.0;
  };

  for (std::size_t i = 0; i < events.size(); ++i) {
    const GateInputEvent& ev = events[i];
    CHARLIE_ASSERT_MSG(ev.t >= t_seg, "gate_output_crossing: unsorted events");
    const ModeTable& mt = tables.state_table(s);
    const double t_cross = search_segment(mt, ev.t - t_seg);
    if (t_cross >= 0.0) return t_cross;
    x = mode_state_at(mt, x, ev.t - t_seg);
    t_seg = ev.t;
    s = gate_state_with(s, ev.port, ev.value);
  }
  const ModeTable& mt = tables.state_table(s);
  const double t_cross = search_segment(mt, tables.horizon());
  if (t_cross < 0.0) {
    throw ConvergenceError(
        "gate_output_crossing: output never crossed V_th within the search "
        "horizon");
  }
  return t_cross;
}

GateSisDelays gate_characteristic_delays(const GateModeTables& tables) {
  const GateParams& p = tables.gate_params();
  const int n = p.n_inputs();
  const bool nor_like = p.topology == GateTopology::kNorLike;
  const GateState all = gate_n_states(n) - 1u;
  const double hold = p.worst_case_hold();

  GateSisDelays out;
  out.fall.reserve(n);
  out.rise.reserve(n);

  // For both topologies a rising input drives the output low (NOR: any high
  // input pulls down; NAND: the last high input completes the pull-down
  // chain) and a falling input drives it high. What differs is the resting
  // state of the other inputs: non-controlling is low for NOR-like, high
  // for NAND-like.
  for (int i = 0; i < n; ++i) {
    {
      // fall[i]: output high, input i rises.
      const GateState s0 = nor_like ? 0u : static_cast<GateState>(
                                               all & ~(1u << i));
      const GateInputEvent ev{0.0, i, true};
      out.fall.push_back(gate_output_crossing(
          tables, s0, hold, std::span<const GateInputEvent>(&ev, 1),
          /*rising=*/false));
    }
    {
      // rise[i]: output low (held by input i alone for NOR, by the full
      // stack for NAND), input i falls.
      const GateState s0 = nor_like ? (1u << i) : all;
      const GateInputEvent ev{0.0, i, false};
      out.rise.push_back(gate_output_crossing(
          tables, s0, hold, std::span<const GateInputEvent>(&ev, 1),
          /*rising=*/true));
    }
  }

  // Simultaneous switching of every input, worst-case internal history
  // (the all-low NAND state and the all-high NOR state freeze the stack).
  std::vector<GateInputEvent> all_rise;
  std::vector<GateInputEvent> all_fall;
  for (int i = 0; i < n; ++i) {
    all_rise.push_back({0.0, i, true});
    all_fall.push_back({0.0, i, false});
  }
  out.fall_all =
      gate_output_crossing(tables, 0u, hold, all_rise, /*rising=*/false);
  out.rise_all =
      gate_output_crossing(tables, all, hold, all_fall, /*rising=*/true);
  return out;
}

GateArcEnvelope gate_arc_envelope(const GateModeTables& tables) {
  const GateSisDelays sis = gate_characteristic_delays(tables);
  GateArcEnvelope env;
  env.rise.reserve(sis.rise.size());
  env.fall.reserve(sis.fall.size());
  for (const double d : sis.rise) env.rise.push_back(std::max(d, sis.rise_all));
  for (const double d : sis.fall) env.fall.push_back(std::max(d, sis.fall_all));
  return env;
}

}  // namespace charlie::core
