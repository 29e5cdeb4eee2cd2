// Reproduces paper Table I: the parametrization flow of Section V.
//   1. Measure the six characteristic Charlie delays on the analog
//      substrate (the paper measured Spectre/FreePDK15).
//   2. Choose delta_min by the ratio rule (paper: 18 ps).
//   3. Least-squares fit (R1..R4, C_N, C_O).
// Also validates eqs (8)-(12) for the fitted parameter set and prints the
// paper's own Table I for comparison.
#include <iostream>

#include "bench_common.hpp"
#include "core/charlie_delays.hpp"
#include "core/delay_model.hpp"

int main(int argc, char** argv) {
  using namespace charlie;
  util::Cli cli(argc, argv);
  cli.finish();

  const auto cal = bench::calibrate();

  std::cout << "=== Substrate characteristic Charlie delays (cf. Fig 2) ===\n";
  util::TextTable meas({"quantity", "measured [ps]", "fitted model [ps]"});
  const auto& s = cal.substrate;
  const auto& a = cal.fit.achieved;
  meas.add_row({"fall(-inf)", util::fmt(bench::ps(s.fall_minus_inf), 2),
                util::fmt(bench::ps(a.fall_minus_inf), 2)});
  meas.add_row({"fall(0)", util::fmt(bench::ps(s.fall_zero), 2),
                util::fmt(bench::ps(a.fall_zero), 2)});
  meas.add_row({"fall(+inf)", util::fmt(bench::ps(s.fall_plus_inf), 2),
                util::fmt(bench::ps(a.fall_plus_inf), 2)});
  meas.add_row({"rise(-inf)", util::fmt(bench::ps(s.rise_minus_inf), 2),
                util::fmt(bench::ps(a.rise_minus_inf), 2)});
  meas.add_row({"rise(0)", util::fmt(bench::ps(s.rise_zero), 2),
                util::fmt(bench::ps(a.rise_zero), 2)});
  meas.add_row({"rise(+inf)", util::fmt(bench::ps(s.rise_plus_inf), 2),
                util::fmt(bench::ps(a.rise_plus_inf), 2)});
  meas.print(std::cout);

  std::cout << "\n=== Table I: fitted parameter values ===\n";
  const auto paper = core::NorParams::paper_table1();
  util::TextTable t({"Parameter", "fitted (this substrate)",
                     "paper Table I (FreePDK15)"});
  t.add_row({"R1", units::format_resistance(cal.params.r1),
             units::format_resistance(paper.r1)});
  t.add_row({"R2", units::format_resistance(cal.params.r2),
             units::format_resistance(paper.r2)});
  t.add_row({"R3", units::format_resistance(cal.params.r3),
             units::format_resistance(paper.r3)});
  t.add_row({"R4", units::format_resistance(cal.params.r4),
             units::format_resistance(paper.r4)});
  t.add_row({"CN", units::format_capacitance(cal.params.cn),
             units::format_capacitance(paper.cn)});
  t.add_row({"CO", units::format_capacitance(cal.params.co),
             units::format_capacitance(paper.co)});
  t.add_row({"delta_min", units::format_time(cal.params.delta_min),
             units::format_time(paper.delta_min)});
  t.print(std::cout);
  std::cout << "fit RMS over the six targets: "
            << units::format_time(cal.fit.gate.rms_error) << "\n";

  std::cout << "\n=== eqs (8)-(12) vs exact crossings (fitted params, raw "
               "RC, no delta_min) ===\n";
  core::NorParams raw = cal.params;
  raw.delta_min = 0.0;
  const core::NorDelayModel model(raw);
  util::TextTable eq({"equation", "closed form [ps]", "exact [ps]"});
  eq.add_row({"(8)  fall(0)", util::fmt(bench::ps(core::paper_fall_zero(raw)), 3),
              util::fmt(bench::ps(model.falling_delay(0.0).delay), 3)});
  eq.add_row({"(9)  fall(-inf)",
              util::fmt(bench::ps(core::paper_fall_minus_inf(raw)), 3),
              util::fmt(bench::ps(model.falling_sis_b_first()), 3)});
  eq.add_row({"(10) fall(+inf)",
              util::fmt(bench::ps(core::paper_fall_plus_inf(raw)), 3),
              util::fmt(bench::ps(model.falling_sis_a_first()), 3)});
  eq.add_row({"(11) rise(60ps, X=0)",
              util::fmt(bench::ps(core::paper_rise_nonneg(raw, 60e-12, 0.0)), 3),
              util::fmt(bench::ps(model.rising_delay(60e-12, 0.0).delay), 3)});
  eq.add_row({"(12) rise(-60ps, X=0)",
              util::fmt(bench::ps(core::paper_rise_neg(raw, -60e-12, 0.0)), 3),
              util::fmt(bench::ps(model.rising_delay(-60e-12, 0.0).delay), 3)});
  eq.print(std::cout);

  std::cout << "\nratio fall(-inf)/fall(0) raw = "
            << util::fmt(core::paper_fall_minus_inf(raw) /
                             core::paper_fall_zero(raw),
                         3)
            << "  (paper Section IV: ~(R3+R4)/R3 ~ 2)\n"
            << "delta_min from ratio rule = "
            << units::format_time(core::delta_min_for_ratio(
                   s.fall_minus_inf, s.fall_zero))
            << "\n";
  return 0;
}
