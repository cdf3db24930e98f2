// Descriptive statistics used by the experiment harnesses (MAC output
// ranges, Monte Carlo summaries, accuracy aggregation).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sfc::util {

/// Summary of a sample: count, extrema, mean, population stddev.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;

  /// max - min.
  double range() const { return max - min; }
};

/// Compute a Summary over a sample. Empty input yields a zeroed Summary.
Summary summarize(std::span<const double> values);

double mean(std::span<const double> values);
double stddev(std::span<const double> values);

/// Percentile via linear interpolation between order statistics.
/// `q` in [0, 100]. Input need not be sorted.
double percentile(std::span<const double> values, double q);

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |error| < 1.15e-9). Used to place deterministic Gaussian quantiles,
/// e.g. Preisach domain coercive voltages. `p` in (0, 1).
double probit(double p);

}  // namespace sfc::util
