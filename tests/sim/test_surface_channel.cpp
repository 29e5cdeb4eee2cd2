#include "sim/surface_nor_channel.hpp"

#include <gtest/gtest.h>

#include <array>

#include "core/delay_model.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/run_channel.hpp"

namespace charlie::sim {
namespace {

class SurfaceChannelFixture : public ::testing::Test {
 protected:
  static const core::DelaySurface& surface() {
    static const core::DelaySurface s = core::DelaySurface::build(
        core::NorParams::paper_table1(), 150e-12, 301);
    return s;
  }
  const core::NorDelayModel model_{core::NorParams::paper_table1()};
};

TEST_F(SurfaceChannelFixture, SisFallingDelay) {
  SurfaceNorChannel ch(surface());
  ch.initialize(0.0, std::array{false, false});
  ch.on_input(1e-9, 1, true);  // B rises alone
  const auto p = ch.pending();
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->value);
  EXPECT_NEAR(p->t - 1e-9, model_.falling_sis_b_first(), 1e-15);
}

TEST_F(SurfaceChannelFixture, MisRescheduleOnSecondRisingInput) {
  // A rises, then B 15 ps later: the pending fall must move up to the
  // MIS-sped-up delay measured from A.
  SurfaceNorChannel ch(surface());
  ch.initialize(0.0, std::array{false, false});
  ch.on_input(1e-9, 0, true);
  const double t_sis = ch.pending()->t;
  ch.on_input(1e-9 + 15e-12, 1, true);
  const auto p = ch.pending();
  ASSERT_TRUE(p.has_value());
  EXPECT_LT(p->t, t_sis);  // Charlie speed-up applied
  EXPECT_NEAR(p->t - 1e-9, model_.falling_delay(15e-12).delay, 0.1e-12);
}

TEST_F(SurfaceChannelFixture, RisingDelayUsesLaterInput) {
  SurfaceNorChannel ch(surface());
  ch.initialize(0.0, std::array{true, true});
  ch.on_input(1e-9, 0, false);                // A falls first
  EXPECT_FALSE(ch.pending().has_value());     // NOR still 0
  ch.on_input(1e-9 + 40e-12, 1, false);       // B falls: output rises
  const auto p = ch.pending();
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->value);
  EXPECT_NEAR(p->t - (1e-9 + 40e-12),
              model_.rising_delay(40e-12, 0.0).delay, 0.1e-12);
}

TEST_F(SurfaceChannelFixture, GlitchCancellation) {
  SurfaceNorChannel ch(surface());
  ch.initialize(0.0, std::array{false, false});
  ch.on_input(1e-9, 0, true);
  ASSERT_TRUE(ch.pending().has_value());
  ch.on_input(1e-9 + 3e-12, 0, false);  // A returns before the fall fires
  EXPECT_FALSE(ch.pending().has_value());
}

TEST_F(SurfaceChannelFixture, AgreesWithStateChannelOnSparseTraces) {
  // With well-separated transitions the delay-function channel and the
  // state-integrating channel coincide.
  const waveform::DigitalTrace a(false, {1e-9, 2e-9, 4e-9});
  const waveform::DigitalTrace b(false, {1.02e-9, 2.5e-9, 4.03e-9});
  SurfaceNorChannel s(surface());
  HybridGateChannel h(core::GateParams::nor2_reference());
  const auto out_s = run_gate_channel(s, a, b, 0.0, 6e-9);
  const auto out_h = run_gate_channel(h, a, b, 0.0, 6e-9);
  ASSERT_EQ(out_s.n_transitions(), out_h.n_transitions());
  for (std::size_t i = 0; i < out_s.n_transitions(); ++i) {
    EXPECT_NEAR(out_s.transitions()[i], out_h.transitions()[i], 0.2e-12)
        << "edge " << i;
  }
}

TEST_F(SurfaceChannelFixture, OutputTraceWellFormedOnDenseTraces) {
  const waveform::DigitalTrace a(false,
                                 {1e-9, 1.05e-9, 1.3e-9, 1.32e-9, 1.6e-9});
  const waveform::DigitalTrace b(false, {1.02e-9, 1.31e-9, 1.7e-9});
  SurfaceNorChannel s(surface());
  const auto out = run_gate_channel(s, a, b, 0.0, 3e-9);
  for (std::size_t i = 1; i < out.n_transitions(); ++i) {
    EXPECT_NE(out.is_rising(i), out.is_rising(i - 1));
    EXPECT_LT(out.transitions()[i - 1], out.transitions()[i]);
  }
}

TEST_F(SurfaceChannelFixture, MaskedInputInvisible) {
  SurfaceNorChannel ch(surface());
  ch.initialize(0.0, std::array{false, true});  // B high: output low
  EXPECT_FALSE(ch.initial_output());
  ch.on_input(1e-9, 0, true);   // A rises while masked
  ch.on_input(2e-9, 0, false);  // and falls again
  EXPECT_FALSE(ch.pending().has_value());
}

}  // namespace
}  // namespace charlie::sim
