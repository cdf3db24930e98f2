// Piecewise-linear function, used by the waveform sources' PWL stimulus,
// and the scalar lerp behind it, which the behavioural array model also
// uses between calibrated temperatures and transient results between
// time points.
#pragma once

#include <utility>
#include <vector>

namespace sfc::util {

/// y = f(x) given as sorted breakpoints; linear between points, clamped
/// (constant extrapolation) outside the covered x-range.
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;

  /// Throws std::invalid_argument unless there is at least one point and
  /// x strictly increases.
  explicit PiecewiseLinear(std::vector<std::pair<double, double>> points);

  double operator()(double x) const;

  /// The breakpoints, x strictly increasing.
  const std::vector<std::pair<double, double>>& points() const {
    return points_;
  }

 private:
  std::vector<std::pair<double, double>> points_;
};

/// Scalar helper: linear interpolation of y between (x0,y0)-(x1,y1).
double lerp(double x, double x0, double y0, double x1, double y1);

}  // namespace sfc::util
