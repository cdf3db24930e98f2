// Differential-oracle layer: every built-in oracle pair agrees, and an
// injected divergence is reported with the correct first-divergence
// coordinates.
#include <gtest/gtest.h>

#include "verify/oracle.hpp"

namespace sfc::verify {
namespace {

TEST(VerifyOracle, AllBuiltInOraclePairsMatch) {
  const auto& cases = oracle_cases();
  ASSERT_EQ(cases.size(), 2u);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const OracleReport rep = c.run();
    EXPECT_TRUE(rep.match) << rep.summary();
    EXPECT_GT(rep.points_compared, 0u);
    EXPECT_EQ(rep.divergences, 0u);
    EXPECT_FALSE(rep.first.has_value());
  }
}

TEST(VerifyOracle, InjectedDivergenceReportsFirstPoint) {
  OracleReport rep;
  rep.name = "injected";
  rep.diff_series(
      "v(acc)", {1.0, 2.0, 3.0, 4.0}, {1.0, 2.5, 3.0, 5.0},
      /*tol_abs=*/0.1, /*tol_rel=*/0.0,
      [](std::size_t i) { return "t=" + std::to_string(i) + "ns"; });
  EXPECT_FALSE(rep.match);
  EXPECT_EQ(rep.points_compared, 4u);
  EXPECT_EQ(rep.divergences, 2u);  // indices 1 and 3
  ASSERT_TRUE(rep.first.has_value());
  EXPECT_EQ(rep.first->quantity, "v(acc)");
  EXPECT_EQ(rep.first->index, 1u);
  EXPECT_EQ(rep.first->label, "t=1ns");
  EXPECT_DOUBLE_EQ(rep.first->a, 2.0);
  EXPECT_DOUBLE_EQ(rep.first->b, 2.5);
  // The summary names the diverging coordinate for the human report.
  EXPECT_NE(rep.summary().find("v(acc)[1]"), std::string::npos);
  EXPECT_NE(rep.summary().find("t=1ns"), std::string::npos);
}

TEST(VerifyOracle, ZeroToleranceMeansBitExact) {
  OracleReport rep;
  rep.diff_series("x", {1.0}, {1.0 + 1e-15});
  EXPECT_FALSE(rep.match);
  OracleReport rep2;
  rep2.diff_series("x", {1.0}, {1.0});
  EXPECT_TRUE(rep2.match);
}

TEST(VerifyOracle, RelativeToleranceScalesWithMagnitude) {
  OracleReport rep;
  rep.diff_series("x", {1e6, 1e-6}, {1e6 + 0.5, 1e-6 + 0.5}, 0.0, 1e-3);
  EXPECT_FALSE(rep.match);
  ASSERT_TRUE(rep.first.has_value());
  EXPECT_EQ(rep.first->index, 1u);  // big value passes, small one diverges
}

TEST(VerifyOracle, LengthMismatchIsStructuralFailure) {
  OracleReport rep;
  rep.diff_series("x", {1.0, 2.0}, {1.0});
  EXPECT_FALSE(rep.match);
  ASSERT_EQ(rep.notes.size(), 1u);
  EXPECT_NE(rep.notes.front().find("length mismatch"), std::string::npos);
  EXPECT_FALSE(rep.first.has_value());  // no point-level divergence
}

TEST(VerifyOracle, NonFiniteValuesDiverge) {
  OracleReport rep;
  rep.diff_series("x", {std::numeric_limits<double>::quiet_NaN()},
                  {std::numeric_limits<double>::quiet_NaN()}, 1e9, 0.0);
  EXPECT_FALSE(rep.match) << "NaN == NaN must not pass an oracle";
}

}  // namespace
}  // namespace sfc::verify
