// Tests for the reproduction's extension features: process corners,
// temperature-tracking ADC references, and configurable wordlengths.
#include <gtest/gtest.h>

#include "cim/behavioral.hpp"
#include "cim/mac.hpp"
#include "cim/montecarlo.hpp"
#include "nn/cim_engine.hpp"

namespace {

using namespace sfc;
using namespace sfc::cim;

TEST(Corners, StandardSetIsSane) {
  const auto corners = standard_corners();
  ASSERT_EQ(corners.size(), 3u);
  EXPECT_STREQ(corners[0].name, "TT");
  EXPECT_DOUBLE_EQ(corners[0].dvth, 0.0);
  EXPECT_GT(corners[1].dvth, 0.0);  // SS: slower, higher VTH
  EXPECT_LT(corners[1].mobility_scale, 1.0);
  EXPECT_LT(corners[2].dvth, 0.0);  // FF
}

TEST(Corners, ApplyShiftsEveryDevice) {
  const ProcessCorner ss = standard_corners()[1];
  const ArrayConfig base = ArrayConfig::proposed_2t1fefet();
  const ArrayConfig shifted = apply_corner(base, ss);
  EXPECT_NEAR(shifted.cell2t.m1.vth0 - base.cell2t.m1.vth0, ss.dvth, 1e-12);
  EXPECT_NEAR(shifted.cell2t.m2.vth0 - base.cell2t.m2.vth0, ss.dvth, 1e-12);
  EXPECT_NEAR(shifted.cell2t.fefet.ferroelectric.vth_low -
                  base.cell2t.fefet.ferroelectric.vth_low,
              ss.dvth, 1e-12);
  EXPECT_NEAR(shifted.cell2t.fefet.channel.mu0 /
                  base.cell2t.fefet.channel.mu0,
              ss.mobility_scale, 1e-12);
}

TEST(Corners, TtCornerIsIdentity) {
  const ArrayConfig base = ArrayConfig::proposed_2t1fefet();
  const ArrayConfig tt = apply_corner(base, standard_corners()[0]);
  EXPECT_DOUBLE_EQ(tt.cell2t.m1.vth0, base.cell2t.m1.vth0);
  EXPECT_DOUBLE_EQ(tt.cell2t.fefet.channel.mu0, base.cell2t.fefet.channel.mu0);
}

TEST(Corners, FastCornerKeepsSeparability) {
  const ArrayConfig ff =
      apply_corner(ArrayConfig::proposed_2t1fefet(), standard_corners()[2]);
  const auto nmr =
      summarize_nmr(mac_level_sweep(ff, {0.0, 27.0, 85.0}).levels());
  EXPECT_TRUE(nmr.separable);
}

TEST(TrackingAdc, ExactOnProposedFabric) {
  const BehavioralArrayModel m = BehavioralArrayModel::calibrate(
      ArrayConfig::proposed_2t1fefet(), {0.0, 27.0, 85.0});
  for (double t : {0.0, 40.0, 85.0}) {
    for (int k = 0; k <= 8; ++k) {
      EXPECT_EQ(m.mac_tracking(k, t), k);
    }
  }
}

TEST(TrackingAdc, RescuesBaselineSystematicShift) {
  const BehavioralArrayModel baseline = BehavioralArrayModel::calibrate(
      ArrayConfig::baseline_1r_subthreshold(), {0.0, 27.0, 85.0});
  int fixed_errors = 0;
  int tracking_errors = 0;
  for (double t : {0.0, 85.0}) {
    for (int k = 0; k <= 8; ++k) {
      if (baseline.mac(k, t) != k) ++fixed_errors;
      if (baseline.mac_tracking(k, t) != k) ++tracking_errors;
    }
  }
  EXPECT_GT(fixed_errors, 0);
  EXPECT_LT(tracking_errors, fixed_errors);
}

TEST(TrackingAdc, MatchesFixedAtDesignTemperature) {
  const BehavioralArrayModel m = BehavioralArrayModel::calibrate(
      ArrayConfig::proposed_2t1fefet(), {0.0, 27.0, 85.0});
  for (int k = 0; k <= 8; ++k) {
    const double v = m.v_acc(k, 27.0);
    EXPECT_EQ(m.decode(v), m.decode_tracking(v, 27.0));
  }
}

TEST(Wordlength, QuantizeOptionsArithmetic) {
  nn::QuantizeOptions q4;
  q4.activation_bits = 4;
  q4.weight_bits = 4;
  EXPECT_EQ(q4.activation_levels(), 15);
  EXPECT_EQ(q4.weight_magnitude_max(), 7);
  nn::QuantizeOptions q8;
  EXPECT_EQ(q8.activation_levels(), 255);
  EXPECT_EQ(q8.weight_magnitude_max(), 127);
}

TEST(Wordlength, NarrowEngineMatchesIdealOnNarrowData) {
  static const BehavioralArrayModel model = BehavioralArrayModel::calibrate(
      ArrayConfig::proposed_2t1fefet(), {27.0});
  nn::CimDotEngine::Options opts;
  opts.activation_bits = 4;
  opts.weight_bits = 4;
  nn::CimDotEngine cim(model, opts);
  nn::IdealDotEngine ideal;
  util::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> a(48);
    std::vector<std::int8_t> w(48);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<std::uint8_t>(rng.uniform_index(16));   // 4-bit
      w[i] = static_cast<std::int8_t>(
          static_cast<int>(rng.uniform_index(15)) - 7);           // 4-bit
    }
    EXPECT_EQ(cim.dot(a, w), ideal.dot(a, w)) << "trial " << trial;
  }
}

TEST(Wordlength, RowOpsScaleWithBits) {
  static const BehavioralArrayModel model = BehavioralArrayModel::calibrate(
      ArrayConfig::proposed_2t1fefet(), {27.0});
  auto ops_for = [&](int bits) {
    nn::CimDotEngine::Options opts;
    opts.activation_bits = bits;
    opts.weight_bits = bits;
    nn::CimDotEngine engine(model, opts);
    const std::vector<std::uint8_t> a(64, 1);
    const std::vector<std::int8_t> w(64, 1);
    engine.dot(a, w);
    return engine.row_ops();
  };
  // groups(8) x bits x (bits-1) x 2 (pos/neg).
  EXPECT_EQ(ops_for(4), 8LL * 4 * 3 * 2);
  EXPECT_EQ(ops_for(8), 8LL * 8 * 7 * 2);
}

}  // namespace
