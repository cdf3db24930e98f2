// Behavioural array model tests: calibration fidelity vs the circuit
// simulation, ADC decode behaviour across temperature, noise injection,
// and the checks on a model built from its levels.
#include <gtest/gtest.h>

#include <limits>

#include "cim/behavioral.hpp"
#include "nn/cim_engine.hpp"

namespace sfc::cim {
namespace {

const std::vector<double> kTemps = {0.0, 27.0, 85.0};

const BehavioralArrayModel& proposed_model() {
  static const BehavioralArrayModel model = BehavioralArrayModel::calibrate(
      ArrayConfig::proposed_2t1fefet(), kTemps);
  return model;
}

// The lookup replays the row it was calibrated from: at each grid
// temperature it returns the simulated ladder's levels bit for bit, and
// between grid points its interpolation stays within 5 mV of a simulation.
TEST(Behavioral, VaccReplaysSpiceLadder) {
  const auto& m = proposed_model();
  CiMRow row(ArrayConfig::proposed_2t1fefet());
  row.set_stored(std::vector<int>(static_cast<std::size_t>(row.cells()), 1));
  const auto expect_ladder = [&](double t, double tol) {
    const std::vector<MacResult> ladder = row.evaluate_levels(t);
    ASSERT_EQ(ladder.size(), 9u);
    for (int k = 0; k <= 8; ++k) {
      const MacResult& r = ladder[static_cast<std::size_t>(k)];
      ASSERT_TRUE(r.converged) << "T=" << t << " k=" << k;
      if (tol == 0.0) {
        EXPECT_EQ(m.v_acc(k, t), r.v_acc) << "T=" << t << " k=" << k;
      } else {
        EXPECT_NEAR(m.v_acc(k, t), r.v_acc, tol) << "T=" << t << " k=" << k;
      }
    }
  };
  for (double t : kTemps) expect_ladder(t, 0.0);
  expect_ladder(55.0, 5e-3);
}

TEST(Behavioral, DecodeIsExactAtDesignTemperature) {
  const auto& m = proposed_model();
  for (int k = 0; k <= 8; ++k) {
    EXPECT_EQ(m.mac(k, 27.0), k);
  }
}

TEST(Behavioral, DecodeStaysExactAcrossTemperature) {
  // The whole point of the proposed cell: levels never cross the fixed ADC
  // thresholds between 0 and 85 degC.
  const auto& m = proposed_model();
  for (double t : {0.0, 10.0, 40.0, 60.0, 85.0}) {
    for (int k = 0; k <= 8; ++k) {
      EXPECT_EQ(m.mac(k, t), k) << "T=" << t << " k=" << k;
    }
  }
}

TEST(Behavioral, BaselineArrayMisdecodesSomewhere) {
  const BehavioralArrayModel m = BehavioralArrayModel::calibrate(
      ArrayConfig::baseline_1r_subthreshold(), kTemps);
  int errors = 0;
  for (double t : {0.0, 85.0}) {
    for (int k = 0; k <= 8; ++k) {
      if (m.mac(k, t) != k) ++errors;
    }
  }
  EXPECT_GT(errors, 0);
}

TEST(Behavioral, VaccInterpolatesBetweenCalibratedTemps) {
  const auto& m = proposed_model();
  const double v_lo = m.v_acc(5, 27.0);
  const double v_hi = m.v_acc(5, 85.0);
  const double v_mid = m.v_acc(5, 56.0);
  EXPECT_GT(v_mid, std::min(v_lo, v_hi));
  EXPECT_LT(v_mid, std::max(v_lo, v_hi));
  // The model does not extrapolate: a temperature outside the calibrated
  // 0..85 degC, or NaN, throws instead of reading an end level.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(m.v_acc(5, -20.0), std::invalid_argument);
  EXPECT_THROW(m.v_acc(5, 125.0), std::invalid_argument);
  EXPECT_THROW(m.v_acc(5, nan), std::invalid_argument);
  EXPECT_THROW(m.mac(5, 125.0), std::invalid_argument);
  EXPECT_THROW(m.mac_tracking(5, -20.0), std::invalid_argument);
  nn::CimDotEngine::Options opts;
  opts.temperature_c = 125.0;
  EXPECT_THROW(nn::CimDotEngine(m, opts), std::invalid_argument);
}

TEST(Behavioral, ThresholdsAreMonotone) {
  const auto& m = proposed_model();
  const auto& th = m.thresholds();
  ASSERT_EQ(th.size(), 8u);
  for (std::size_t i = 1; i < th.size(); ++i) {
    EXPECT_GT(th[i], th[i - 1]);
  }
}

TEST(Behavioral, NoiseInjectionFlipsSomeDecodes) {
  const auto& m = proposed_model();
  // No calibrated sigma -> noise draw changes nothing.
  util::Rng rng(1);
  EXPECT_EQ(m.mac(4, 27.0, &rng), 4);
  const double th = m.thresholds()[3];
  EXPECT_EQ(m.decode(th - 1e-6), 3);
  EXPECT_EQ(m.decode(th + 1e-6), 4);

  // Levels 50 mV apart with a 30 mV sigma: each noisy mac() decodes its
  // level plus the next normal draw, and some draws cross a threshold.
  const BehavioralArrayModel noisy(
      8, {27.0}, {0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50},
      std::vector<double>(9, 0.03));
  util::Rng noise(7);
  util::Rng replay(7);
  int flipped = 0;
  for (int i = 0; i < 200; ++i) {
    const int got = noisy.mac(4, 27.0, &noise);
    EXPECT_EQ(got, noisy.decode(noisy.v_acc(4, 27.0) +
                                replay.normal(0.0, noisy.sigma(4))))
        << "draw " << i;
    flipped += got != 4;
  }
  EXPECT_GT(flipped, 0);
  EXPECT_EQ(noisy.mac(4, 27.0), 4);
}

// v_acc reads the grid's ends as its range and lerps between the first
// pair around T, so both the constructor and calibrate refuse a grid that
// is not finite and strictly increasing. calibrate refuses it before
// simulating anything.
TEST(Behavioral, RejectsUnorderedTemperatureGrid) {
  const std::vector<double> sigmas = {0.0, 0.0, 0.0};
  EXPECT_NO_THROW(BehavioralArrayModel(
      2, {0.0, 27.0, 85.0},
      {0.20, 0.26, 0.32, 0.22, 0.28, 0.34, 0.21, 0.27, 0.33}, sigmas));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> grids = {
      {0.0, 85.0, 27.0}, {0.0, 27.0, 27.0}, {27.0, 27.0},
      {27.0, nan},       {0.0, 27.0, inf},  {}};
  for (const std::vector<double>& grid : grids) {
    // Levels that fit the grid, so that only its order is wrong.
    const std::vector<double> levels(3 * grid.size(), 0.2);
    EXPECT_THROW(BehavioralArrayModel(2, grid, levels, sigmas),
                 std::invalid_argument)
        << grid.size() << " temperatures";
    EXPECT_THROW(BehavioralArrayModel::calibrate(
                     ArrayConfig::proposed_2t1fefet(), grid),
                 std::invalid_argument)
        << grid.size() << " temperatures";
  }
}

// A model holds one level per temperature and MAC and one sigma per MAC,
// for at least one cell, and its grid covers the 27 degC design point.
TEST(Behavioral, RejectsLevelsOrSigmasThatDoNotFitTheRow) {
  const std::vector<double> levels = {0.1, 0.2, 0.3};
  const std::vector<double> sigmas = {0.0, 0.01, 0.01};
  EXPECT_NO_THROW(BehavioralArrayModel(2, {27.0}, levels, sigmas));
  EXPECT_THROW(BehavioralArrayModel(2, {27.0}, {0.1, 0.2}, sigmas),
               std::invalid_argument);
  EXPECT_THROW(BehavioralArrayModel(2, {27.0}, {0.1, 0.2, 0.3, 0.4}, sigmas),
               std::invalid_argument);
  EXPECT_THROW(BehavioralArrayModel(2, {0.0, 27.0}, levels, sigmas),
               std::invalid_argument);
  EXPECT_THROW(BehavioralArrayModel(2, {27.0}, levels, {0.0, 0.01}),
               std::invalid_argument);
  EXPECT_THROW(BehavioralArrayModel(2, {27.0}, levels, {0.0, 0.0, 0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(BehavioralArrayModel(0, {27.0}, {0.1}, {0.0}),
               std::invalid_argument);
  EXPECT_THROW(BehavioralArrayModel(2, {85.0}, levels, sigmas),
               std::invalid_argument);
}

// A 2-cell model at one temperature, built from its levels so that no row
// is simulated. MAC values outside 0..2 throw in every build.
BehavioralArrayModel two_cell_model() {
  return BehavioralArrayModel(2, {27.0}, {0.1, 0.2, 0.3}, {0.0, 0.01, 0.01});
}

TEST(Behavioral, VaccRejectsMacOutsideRow) {
  const BehavioralArrayModel m = two_cell_model();
  EXPECT_THROW(m.v_acc(5, 27.0), std::invalid_argument);
  EXPECT_THROW(m.v_acc(-1, 27.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.v_acc(2, 27.0), 0.3);
  EXPECT_THROW(BehavioralArrayModel().v_acc(0, 27.0), std::logic_error);
}

TEST(Behavioral, SigmaRejectsMacOutsideRow) {
  const BehavioralArrayModel m = two_cell_model();
  EXPECT_THROW(m.sigma(3), std::invalid_argument);
  EXPECT_THROW(m.sigma(-1), std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.sigma(2), 0.01);
}

TEST(Behavioral, MacRejectsCountOutsideRow) {
  const BehavioralArrayModel m = two_cell_model();
  util::Rng rng(3);
  EXPECT_THROW(m.mac(3, 27.0), std::invalid_argument);
  EXPECT_THROW(m.mac(-1, 27.0, &rng), std::invalid_argument);
  EXPECT_EQ(m.mac(2, 27.0), 2);
}

TEST(Behavioral, MacTrackingRejectsCountOutsideRow) {
  const BehavioralArrayModel m = two_cell_model();
  util::Rng rng(3);
  EXPECT_THROW(m.mac_tracking(3, 27.0), std::invalid_argument);
  EXPECT_THROW(m.mac_tracking(-1, 27.0, &rng), std::invalid_argument);
  EXPECT_EQ(m.mac_tracking(1, 27.0), 1);
}

TEST(Behavioral, CalibrationWithVariationPopulatesSigma) {
  MonteCarloConfig mc;
  mc.runs = 5;
  mc.sigma_vt_fefet = 0.054;
  const BehavioralArrayModel m = BehavioralArrayModel::calibrate(
      ArrayConfig::proposed_2t1fefet(), {27.0}, &mc);
  double sigma_sum = 0.0;
  for (int k = 1; k <= 8; ++k) sigma_sum += m.sigma(k);
  EXPECT_GT(sigma_sum, 0.0);
}

}  // namespace
}  // namespace sfc::cim
