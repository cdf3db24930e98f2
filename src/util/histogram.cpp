#include "util/histogram.hpp"

#include <algorithm>
#include <cassert>

namespace sfc::util {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(bins > 0);
  assert(hi > lo);
}

void Histogram::add(double value) {
  const double span = hi_ - lo_;
  double t = (value - lo_) / span;
  t = std::clamp(t, 0.0, 1.0);
  auto bin = static_cast<std::size_t>(t * static_cast<double>(counts_.size()));
  bin = std::min(bin, counts_.size() - 1);
  ++counts_[bin];
  ++total_;
}

void Histogram::add_all(std::span<const double> values) {
  for (double v : values) add(v);
}

double Histogram::bin_low(std::size_t bin) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) / static_cast<double>(counts_.size());
}

double Histogram::bin_high(std::size_t bin) const {
  return bin_low(bin + 1);
}

}  // namespace sfc::util
