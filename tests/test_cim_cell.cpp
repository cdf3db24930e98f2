// Cell-level CiM tests: multiplication truth table, temperature behaviour
// of the three cell configurations (Figs. 3 and 7), and the feedback
// mechanism of the proposed 2T-1FeFET cell.
#include <gtest/gtest.h>

#include <cmath>

#include "cim/mac.hpp"

namespace sfc::cim {
namespace {

const std::vector<double> kTemps = {0.0, 27.0, 85.0};

double out_level(const ArrayConfig& cfg, int stored, int input, double t) {
  return cell_temperature_response(cfg, {t}, stored, input).at(0).v_out;
}

TEST(Cell2T, MultiplicationTruthTable) {
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  const double v11 = out_level(cfg, 1, 1, 27.0);
  const double v10 = out_level(cfg, 1, 0, 27.0);
  const double v01 = out_level(cfg, 0, 1, 27.0);
  const double v00 = out_level(cfg, 0, 0, 27.0);
  // Only stored=1 AND input=1 produces a high output.
  EXPECT_GT(v11, 0.08);
  EXPECT_LT(v10, 0.1 * v11);
  EXPECT_LT(v01, 0.1 * v11);
  EXPECT_LT(v00, 0.1 * v11);
}

TEST(Cell2T, OutputBelowSlRail) {
  // The follower must settle below the SL rail (not clamp to it), or the
  // analog level carries no information.
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  for (double t : kTemps) {
    const double v = out_level(cfg, 1, 1, t);
    EXPECT_LT(v, cfg.bias.v_sl - 0.02) << "T=" << t;
    EXPECT_GT(v, 0.05) << "T=" << t;
  }
}

TEST(Cell2T, TemperatureResilienceBeatsSubthresholdBaseline) {
  // Fig. 7 vs Fig. 3(b): the proposed cell's output fluctuation must be
  // well below the subthreshold 1FeFET-1R cell's.
  auto fluct_2t = [&] {
    const auto resp = cell_temperature_response(
        ArrayConfig::proposed_2t1fefet(), kTemps, 1, 1);
    std::vector<double> t, i;
    for (const auto& r : resp) {
      t.push_back(r.temperature_c);
      i.push_back(r.i_avg);
    }
    return max_normalized_fluctuation(t, i, 27.0);
  }();
  auto fluct_sub = [&] {
    const auto resp = cell_current_response(
        ArrayConfig::baseline_1r_subthreshold(), kTemps, 1, 1);
    std::vector<double> t, i;
    for (const auto& r : resp) {
      t.push_back(r.temperature_c);
      i.push_back(r.i_drain);
    }
    return max_normalized_fluctuation(t, i, 27.0);
  }();
  EXPECT_LT(fluct_2t, 0.15);
  EXPECT_GT(fluct_sub, 0.2);
  EXPECT_LT(fluct_2t, 0.6 * fluct_sub);
  // cell_fluctuation, which the Fig. 3/7 benches print, measures the same.
  EXPECT_EQ(cell_fluctuation(ArrayConfig::proposed_2t1fefet(), kTemps).max,
            fluct_2t);
  EXPECT_EQ(
      cell_fluctuation(ArrayConfig::baseline_1r_subthreshold(), kTemps).max,
      fluct_sub);
}

TEST(Cell1R, SubthresholdWorseThanSaturation) {
  // Fig. 3(a) vs (b): current-mode drift comparison.
  auto fluct = [&](const ArrayConfig& cfg) {
    const auto resp = cell_current_response(cfg, kTemps, 1, 1);
    std::vector<double> t, i;
    for (const auto& r : resp) {
      t.push_back(r.temperature_c);
      i.push_back(r.i_drain);
    }
    return max_normalized_fluctuation(t, i, 27.0);
  };
  const double f_sat = fluct(ArrayConfig::baseline_1r_saturation());
  const double f_sub = fluct(ArrayConfig::baseline_1r_subthreshold());
  EXPECT_EQ(cell_fluctuation(ArrayConfig::baseline_1r_saturation(), kTemps).max,
            f_sat);
  EXPECT_GT(f_sub, f_sat);
  // Paper: 20.6% vs 52.1%. Our bands: sat in [5%, 45%], sub > sat.
  EXPECT_GT(f_sat, 0.05);
  EXPECT_LT(f_sat, 0.45);
}

TEST(Cell1R, SaturationCurrentMuchLargerThanSubthreshold) {
  const auto sat = cell_current_response(
      ArrayConfig::baseline_1r_saturation(), {27.0}, 1, 1);
  const auto sub = cell_current_response(
      ArrayConfig::baseline_1r_subthreshold(), {27.0}, 1, 1);
  EXPECT_GT(sat.at(0).i_drain, 100.0 * sub.at(0).i_drain);
}

TEST(Cell1R, StoredZeroConductsAlmostNothing) {
  for (const auto& cfg : {ArrayConfig::baseline_1r_saturation(),
                          ArrayConfig::baseline_1r_subthreshold()}) {
    const auto on = cell_current_response(cfg, {27.0}, 1, 1);
    const auto off = cell_current_response(cfg, {27.0}, 0, 1);
    EXPECT_GT(on.at(0).i_drain, 1e4 * std::max(off.at(0).i_drain, 1e-30));
  }
}

TEST(Cell2T, FeedbackReducesDrift) {
  // Ablation: breaking the feedback (M2 gate held at ground instead of
  // OUT) must increase the temperature drift of the output. We emulate the
  // broken loop by making M2 so weak that the loop gain vanishes.
  ArrayConfig nominal = ArrayConfig::proposed_2t1fefet();
  ArrayConfig broken = nominal;
  broken.cell2t.m2.w = broken.cell2t.m2.w * 1e-3;  // loop effectively open

  auto drift = [&](const ArrayConfig& cfg) {
    const double v0 = out_level(cfg, 1, 1, 0.0);
    const double v85 = out_level(cfg, 1, 1, 85.0);
    return std::fabs(v85 - v0);
  };
  EXPECT_LT(drift(nominal), drift(broken));
}

TEST(Cell2T, WlDisableBlocksLeakage) {
  // With the WL underdrive the input-0 cell must stay quiet even hot; with
  // WL grounded the FeFET leak lifts the internal node and the output
  // creeps (the NMR_0 failure analyzed in DESIGN.md).
  ArrayConfig with_disable = ArrayConfig::proposed_2t1fefet();
  ArrayConfig grounded = with_disable;
  grounded.bias.v_wl_off = 0.0;
  const double quiet = out_level(with_disable, 1, 0, 85.0);
  const double creep = out_level(grounded, 1, 0, 85.0);
  EXPECT_LT(quiet, 0.002);
  EXPECT_GT(creep, quiet);
}

TEST(CellConfigs, WlReadLevelSelection) {
  EXPECT_DOUBLE_EQ(ArrayConfig::proposed_2t1fefet().wl_read_level(), 0.35);
  EXPECT_DOUBLE_EQ(ArrayConfig::baseline_1r_subthreshold().wl_read_level(),
                   0.35);
  EXPECT_DOUBLE_EQ(ArrayConfig::baseline_1r_saturation().wl_read_level(),
                   1.3);
}

}  // namespace
}  // namespace sfc::cim
