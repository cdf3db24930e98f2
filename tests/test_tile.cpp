// CiMTile tests: circuit-accurate matrix-vector products on the proposed
// fabric, wide-row segmentation, temperature stability, and the ASCII
// plot utility used by the tile example.
#include <gtest/gtest.h>

#include "cim/tile.hpp"
#include "util/plot.hpp"
#include "util/rng.hpp"

namespace sfc::cim {
namespace {

const BehavioralArrayModel& adc() {
  static const BehavioralArrayModel model = BehavioralArrayModel::calibrate(
      ArrayConfig::proposed_2t1fefet(), {0.0, 27.0, 85.0});
  return model;
}

TEST(CiMTile, ExactSmallMatrixVectorProduct) {
  const std::vector<std::vector<int>> w = {
      {1, 0, 1, 1, 0, 1, 1, 0},
      {0, 1, 1, 0, 1, 0, 0, 1},
      {1, 1, 1, 1, 1, 1, 1, 1},
  };
  CiMTile tile(ArrayConfig::proposed_2t1fefet(), w);
  EXPECT_EQ(tile.rows(), 3);
  EXPECT_EQ(tile.columns(), 8);
  EXPECT_EQ(tile.segments_per_row(), 1);

  const std::vector<int> x = {1, 1, 0, 1, 1, 0, 1, 1};
  const CiMTile::Result r = tile.multiply(x, 27.0, adc());
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.errors(), 0);
  EXPECT_EQ(r.values, r.expected);
  EXPECT_GT(r.energy_joules, 0.0);
}

TEST(CiMTile, WideRowsSplitIntoSegments) {
  // 20 columns -> 3 segments of 8 (zero-padded).
  util::Rng rng(5);
  std::vector<std::vector<int>> w(2, std::vector<int>(20));
  std::vector<int> x(20);
  for (auto& row : w) {
    for (int& b : row) b = rng.bernoulli(0.5) ? 1 : 0;
  }
  for (int& b : x) b = rng.bernoulli(0.5) ? 1 : 0;

  CiMTile tile(ArrayConfig::proposed_2t1fefet(), w);
  EXPECT_EQ(tile.segments_per_row(), 3);
  const CiMTile::Result r = tile.multiply(x, 27.0, adc());
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.errors(), 0);
  ASSERT_EQ(r.v_acc[0].size(), 3u);
}

TEST(CiMTile, StableAcrossTemperature) {
  const std::vector<std::vector<int>> w = {{1, 1, 0, 1, 0, 1, 1, 1}};
  const std::vector<int> x = {1, 0, 1, 1, 1, 1, 0, 1};
  CiMTile tile(ArrayConfig::proposed_2t1fefet(), w);
  for (double t : {0.0, 27.0, 85.0}) {
    const CiMTile::Result r = tile.multiply(x, t, adc());
    ASSERT_TRUE(r.converged) << "T=" << t;
    EXPECT_EQ(r.errors(), 0) << "T=" << t;
  }
}

TEST(CiMTile, RejectsBadMatrices) {
  EXPECT_THROW(CiMTile(ArrayConfig::proposed_2t1fefet(), {}),
               std::invalid_argument);
  EXPECT_THROW(CiMTile(ArrayConfig::proposed_2t1fefet(), {{1, 0}, {1}}),
               std::invalid_argument);
}

TEST(CiMTile, MultiplyRejectsWrongInputLength) {
  CiMTile tile(ArrayConfig::proposed_2t1fefet(), {{1, 0, 1}});
  // The length check runs before any row is simulated or decoded, so an
  // uncalibrated ADC model is enough.
  const BehavioralArrayModel uncalibrated;
  EXPECT_THROW(tile.multiply({1, 1}, 27.0, uncalibrated),
               std::invalid_argument);
  EXPECT_THROW(tile.multiply({1, 1, 1, 1}, 27.0, uncalibrated),
               std::invalid_argument);
}

TEST(AsciiPlot, RendersSeriesAndLegend) {
  util::AsciiPlot plot(32, 8);
  const std::vector<double> x = {0, 1, 2, 3, 4};
  const std::vector<double> y1 = {0, 1, 2, 3, 4};
  const std::vector<double> y2 = {4, 3, 2, 1, 0};
  plot.add_series("up", x, y1, '*');
  plot.add_series("down", x, y2, 'o');
  const std::string art = plot.render();
  EXPECT_NE(art.find('*'), std::string::npos);
  EXPECT_NE(art.find('o'), std::string::npos);
  EXPECT_NE(art.find("legend"), std::string::npos);
  EXPECT_NE(art.find("up"), std::string::npos);
}

TEST(AsciiPlot, HandlesDegenerateRanges) {
  util::AsciiPlot plot;
  const std::vector<double> x = {1.0, 1.0};
  const std::vector<double> y = {2.0, 2.0};
  plot.add_series("flat", x, y, '#');
  EXPECT_NE(plot.render().find('#'), std::string::npos);
  util::AsciiPlot empty;
  EXPECT_NE(empty.render().find("empty"), std::string::npos);
}

}  // namespace
}  // namespace sfc::cim
