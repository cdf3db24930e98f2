#include "util/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

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

std::string Histogram::ascii(std::size_t width) const {
  std::size_t peak = 1;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::string out;
  char line[160];
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const std::size_t bar =
        counts_[b] == 0 ? 0 : std::max<std::size_t>(1, counts_[b] * width / peak);
    std::snprintf(line, sizeof(line), "[%9.4g, %9.4g)  %6zu  ", bin_low(b),
                  bin_high(b), counts_[b]);
    out += line;
    out.append(bar, '#');
    out += '\n';
  }
  return out;
}

}  // namespace sfc::util
