#include "util/interp.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace sfc::util {

double lerp(double x, double x0, double y0, double x1, double y1) {
  if (x1 == x0) return 0.5 * (y0 + y1);
  const double t = (x - x0) / (x1 - x0);
  return y0 + t * (y1 - y0);
}

PiecewiseLinear::PiecewiseLinear(std::vector<std::pair<double, double>> points)
    : points_(std::move(points)) {
  // operator() binary-searches x, so unsorted points would read garbage.
  bool valid = !points_.empty();
  for (std::size_t i = 1; valid && i < points_.size(); ++i) {
    valid = points_[i - 1].first < points_[i].first;
  }
  if (!valid) {
    throw std::invalid_argument(
        "piecewise-linear: need at least one point, with strictly "
        "increasing x");
  }
}

double PiecewiseLinear::operator()(double x) const {
  assert(!points_.empty());
  if (x <= points_.front().first) return points_.front().second;
  if (x >= points_.back().first) return points_.back().second;
  // Binary search for the segment containing x.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), x,
      [](double value, const auto& p) { return value < p.first; });
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  return lerp(x, lo.first, lo.second, hi.first, hi.second);
}

}  // namespace sfc::util
