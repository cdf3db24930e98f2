// Dense LU solver tests, including the singular and permutation-heavy
// cases the MNA assembly can produce.
#include <gtest/gtest.h>

#include <cmath>

#include "spice/matrix.hpp"
#include "util/rng.hpp"

namespace sfc::spice {
namespace {

TEST(DenseMatrix, ZeroInitializedAndIndexable) {
  DenseMatrix m(3, 3);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
  m.at(1, 2) = 4.5;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 4.5);
  m.set_zero();
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
}

TEST(LuSolve, Identity) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = 1.0;
  std::vector<double> b = {3.0, -7.0};
  ASSERT_TRUE(lu_solve(a, b));
  EXPECT_DOUBLE_EQ(b[0], 3.0);
  EXPECT_DOUBLE_EQ(b[1], -7.0);
}

TEST(LuSolve, RequiresPivoting) {
  // Zero on the initial diagonal forces a row swap.
  DenseMatrix a(2, 2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 1.0;
  std::vector<double> b = {1.0, 4.0};  // x = (1.5, 1)
  ASSERT_TRUE(lu_solve(a, b));
  EXPECT_NEAR(b[0], 1.5, 1e-12);
  EXPECT_NEAR(b[1], 1.0, 1e-12);
}

TEST(LuSolve, SingularDetected) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  std::vector<double> b = {1.0, 2.0};
  EXPECT_FALSE(lu_solve(a, b));
}

TEST(LuSolve, EmptySystem) {
  DenseMatrix a(0, 0);
  std::vector<double> b;
  EXPECT_TRUE(lu_solve(a, b));
}

TEST(LuSolve, RandomSystemsRoundTrip) {
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_index(30));
    DenseMatrix a(n, n);
    std::vector<double> x_true(n);
    for (std::size_t i = 0; i < n; ++i) {
      x_true[i] = rng.uniform(-5.0, 5.0);
      for (std::size_t j = 0; j < n; ++j) {
        a.at(i, j) = rng.uniform(-1.0, 1.0);
      }
      a.at(i, i) += 3.0;  // keep well conditioned
    }
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) b[i] += a.at(i, j) * x_true[j];
    }
    std::vector<double> x = b;
    ASSERT_TRUE(lu_solve(a, x));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-8) << "trial " << trial << " i " << i;
    }
  }
}

}  // namespace
}  // namespace sfc::spice
