// Fixed-bin histogram, used for the Monte Carlo process-variation figure
// (Fig. 9).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sfc::util {

class Histogram {
 public:
  /// Build `bins` equal-width bins covering [lo, hi]. Values outside the
  /// range are clamped into the first/last bin so no sample is dropped.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value);
  void add_all(std::span<const double> values);

  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t total() const { return total_; }
  double bin_low(std::size_t bin) const;
  double bin_high(std::size_t bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace sfc::util
