// End-to-end pipeline tests: analog substrate -> characterization -> fit ->
// hybrid channel -> accuracy evaluation (the full Section VI workflow).
#include <gtest/gtest.h>

#include "core/delay_model.hpp"
#include "core/gate_parametrize.hpp"
#include "sim/accuracy.hpp"
#include "sim/gate_models.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/run_channel.hpp"
#include "spice/characterize.hpp"
#include "waveform/digitize.hpp"
#include "waveform/metrics.hpp"

namespace charlie {
namespace {

constexpr auto kNor = core::GateTopology::kNorLike;

// Shared fixture computing the expensive calibration once.
class EndToEnd : public ::testing::Test {
 protected:
  struct Calibration {
    spice::Technology tech = spice::Technology::freepdk15_like();
    spice::SubstrateCharacteristics substrate;
    core::FitResult fit;
  };

  static const Calibration& calib() {
    static const Calibration c = [] {
      Calibration out;
      out.substrate = spice::measure_characteristics(out.tech);
      core::CharacteristicDelays targets;
      targets.fall_minus_inf = out.substrate.fall_minus_inf;
      targets.fall_zero = out.substrate.fall_zero;
      targets.fall_plus_inf = out.substrate.fall_plus_inf;
      targets.rise_minus_inf = out.substrate.rise_minus_inf;
      targets.rise_zero = out.substrate.rise_zero;
      targets.rise_plus_inf = out.substrate.rise_plus_inf;
      core::GateFitOptions opts;
      opts.vdd = out.tech.vdd;
      opts.nelder_mead_evaluations = 1500;
      out.fit = core::fit_nor_params(targets, opts);
      return out;
    }();
    return c;
  }
};

TEST_F(EndToEnd, FitMatchesSubstrateFallingCurve) {
  // Fitted hybrid model vs direct analog measurement across Delta: the
  // falling curve is the paper's "very good fit" case (Fig 5).
  const core::NorDelayModel model(calib().fit.params);
  for (double delta : {-80e-12, -30e-12, 0.0, 30e-12, 80e-12}) {
    const double analog =
        spice::measure_falling_delay(calib().tech, delta).delay;
    const double hybrid = model.falling_delay(delta).delay;
    EXPECT_NEAR(hybrid, analog, 5e-12)
        << "delta=" << delta << ": model deviates from substrate";
  }
}

TEST_F(EndToEnd, FitReproducesSisAsymmetries) {
  const auto& s = calib().substrate;
  const auto& a = calib().fit.achieved;
  // Orderings must carry over even if absolute errors exist.
  EXPECT_LT(a.fall_zero, a.fall_minus_inf);
  EXPECT_LT(a.fall_minus_inf, a.fall_plus_inf);
  EXPECT_LT(a.rise_plus_inf, a.rise_minus_inf);
  // And each achieved value is within a few ps of the target.
  EXPECT_NEAR(a.fall_zero, s.fall_zero, 2e-12);
  EXPECT_NEAR(a.fall_minus_inf, s.fall_minus_inf, 2e-12);
  EXPECT_NEAR(a.rise_plus_inf, s.rise_plus_inf, 3e-12);
}

TEST_F(EndToEnd, HybridChannelTracksAnalogOnRandomTrace) {
  // A short random trace: the fitted hybrid channel's output must stay
  // close to the digitized analog output (mean |offset| well below the
  // gate delay).
  const auto& cal = calib();
  util::Rng rng(7777);
  waveform::TraceConfig cfg;
  cfg.mu = 300e-12;
  cfg.sigma = 100e-12;
  cfg.n_transitions = 30;
  cfg.t_start = 2.0 * cal.tech.input_rise_time;
  const auto traces = waveform::generate_traces(cfg, 2, rng);
  const double t_end =
      std::max(traces[0].transitions().back(),
               traces[1].transitions().back()) + 500e-12;
  spice::TransientOptions topt;
  topt.v_abstol = 5e-5;
  topt.v_reltol = 5e-4;
  const auto analog =
      spice::run_nor2(cal.tech, traces[0], traces[1], t_end, topt);
  const auto golden = waveform::digitize(analog.vo, cal.tech.vth());
  const auto a_dig = waveform::digitize(analog.va, cal.tech.vth());
  const auto b_dig = waveform::digitize(analog.vb, cal.tech.vth());

  sim::HybridGateChannel channel(core::GateParams::from_nor(cal.fit.params));
  const auto out = sim::run_gate_channel(channel, a_dig, b_dig, 0.0, t_end);

  const auto stats = waveform::pair_edges(golden, out, 30e-12);
  EXPECT_EQ(stats.unmatched_reference, 0u);
  EXPECT_EQ(stats.unmatched_model, 0u);
  EXPECT_LT(stats.mean_abs_offset, 5e-12);
}

TEST_F(EndToEnd, AccuracyRankingShortPulses) {
  // The paper's headline (Fig 7, short pulses): hybrid model with
  // delta_min beats the inertial baseline; the stripped variant does not.
  const auto& cal = calib();
  sim::SisGateDelays sis;
  sis.rise = 0.5 * (cal.substrate.rise_minus_inf + cal.substrate.rise_plus_inf);
  sis.fall = 0.5 * (cal.substrate.fall_minus_inf + cal.substrate.fall_plus_inf);
  core::NorParams stripped = cal.fit.params;
  stripped.delta_min = 0.0;

  std::vector<sim::ModelUnderTest> models;
  models.push_back(
      {"inertial", [&] { return sim::make_inertial_gate(kNor, 2, sis); },
       true});
  models.push_back({"hm", [&] {
                      return std::make_unique<sim::HybridGateChannel>(
                          core::GateParams::from_nor(cal.fit.params));
                    },
                    false});
  models.push_back({"hm_stripped", [&] {
                      return std::make_unique<sim::HybridGateChannel>(
                          core::GateParams::from_nor(stripped));
                    },
                    false});

  waveform::TraceConfig cfg;
  cfg.mu = 150e-12;
  cfg.sigma = 70e-12;
  cfg.n_transitions = 60;
  sim::AccuracyOptions opts;
  opts.repetitions = 2;
  const auto result = sim::evaluate_gate_accuracy(
      cal.tech, spice::CellKind::kNor2, cfg, models, opts);
  ASSERT_EQ(result.models.size(), 3u);
  EXPECT_DOUBLE_EQ(result.models[0].normalized, 1.0);
  EXPECT_LT(result.models[1].normalized, 0.9);   // HM clearly better
  EXPECT_GT(result.models[2].normalized,
            result.models[1].normalized);        // stripped clearly worse
}

TEST_F(EndToEnd, DeterministicAcrossRuns) {
  const auto& cal = calib();
  sim::SisGateDelays sis{50e-12, 45e-12};
  std::vector<sim::ModelUnderTest> models;
  models.push_back(
      {"inertial", [&] { return sim::make_inertial_gate(kNor, 2, sis); },
       true});
  waveform::TraceConfig cfg;
  cfg.mu = 200e-12;
  cfg.sigma = 50e-12;
  cfg.n_transitions = 20;
  sim::AccuracyOptions opts;
  opts.repetitions = 1;
  const auto r1 = sim::evaluate_gate_accuracy(
      cal.tech, spice::CellKind::kNor2, cfg, models, opts);
  const auto r2 = sim::evaluate_gate_accuracy(
      cal.tech, spice::CellKind::kNor2, cfg, models, opts);
  EXPECT_DOUBLE_EQ(r1.models[0].mean_area, r2.models[0].mean_area);
}

}  // namespace
}  // namespace charlie
