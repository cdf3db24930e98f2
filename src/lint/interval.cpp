#include "lint/interval.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace sfc::lint {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Outward rounding: one ulp down/up. Infinite endpoints pass through
/// (nextafter(+inf, -inf) would *tighten* a +inf lower bound to DBL_MAX,
/// which is still sound for `down` but not worth the asymmetry — keep
/// infinities exact on both sides).
double down(double v) {
  if (std::isnan(v)) return -kInf;
  if (std::isinf(v)) return v;
  return std::nextafter(v, -kInf);
}

double up(double v) {
  if (std::isnan(v)) return kInf;
  if (std::isinf(v)) return v;
  return std::nextafter(v, kInf);
}

/// Endpoint product with the 0 * inf convention resolved to 0: a zero
/// factor means the true product is exactly zero no matter how large the
/// other side may be, so 0 is the correct (and sound) candidate.
double mulc(double x, double y) {
  if (x == 0.0 || y == 0.0) return 0.0;
  return x * y;
}

/// Endpoint quotient; the caller has excluded 0 from the divisor interval,
/// but infinite/infinite combinations can still appear (inf/inf -> pick 0,
/// which the min/max over all four candidates keeps sound because the
/// matching finite candidates bracket it).
double divc(double x, double y) {
  if (x == 0.0 || std::isinf(y)) return 0.0;
  return x / y;
}

}  // namespace

Interval::Interval() : lo_(-kInf), hi_(kInf) {}

Interval::Interval(double v) : lo_(v), hi_(v) {
  if (std::isnan(v)) {
    lo_ = -kInf;
    hi_ = kInf;
  }
}

Interval::Interval(double lo, double hi) : lo_(lo), hi_(hi) {
  if (std::isnan(lo) || std::isnan(hi)) {
    lo_ = -kInf;
    hi_ = kInf;
  } else if (lo_ > hi_) {
    *this = empty();
  }
}

Interval Interval::empty() {
  Interval i;
  i.lo_ = kInf;
  i.hi_ = -kInf;
  return i;
}

Interval Interval::universe() { return Interval(); }

Interval Interval::hull(const Interval& a, const Interval& b) {
  if (a.is_empty()) return b;
  if (b.is_empty()) return a;
  Interval out;
  out.lo_ = std::min(a.lo_, b.lo_);
  out.hi_ = std::max(a.hi_, b.hi_);
  return out;
}

Interval Interval::intersect(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return empty();
  const double lo = std::max(a.lo_, b.lo_);
  const double hi = std::min(a.hi_, b.hi_);
  if (lo > hi) return empty();
  Interval out;
  out.lo_ = lo;
  out.hi_ = hi;
  return out;
}

bool Interval::is_universe() const { return lo_ == -kInf && hi_ == kInf; }

bool Interval::is_bounded() const {
  return !is_empty() && std::isfinite(lo_) && std::isfinite(hi_);
}

bool Interval::contains(const Interval& other) const {
  if (other.is_empty()) return true;
  if (is_empty()) return false;
  return lo_ <= other.lo_ && other.hi_ <= hi_;
}

double Interval::width() const {
  if (is_empty()) return 0.0;
  return hi_ - lo_;
}

Interval Interval::widened(double eps) const {
  if (is_empty()) return *this;
  return Interval(lo_ - eps, hi_ + eps);
}

Interval& Interval::operator|=(const Interval& other) {
  *this = hull(*this, other);
  return *this;
}

Interval& Interval::operator&=(const Interval& other) {
  *this = intersect(*this, other);
  return *this;
}

Interval operator+(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::empty();
  Interval out;
  out.lo_ = down(a.lo_ + b.lo_);
  out.hi_ = up(a.hi_ + b.hi_);
  return out;
}

Interval operator-(const Interval& a) {
  if (a.is_empty()) return Interval::empty();
  Interval out;
  out.lo_ = -a.hi_;
  out.hi_ = -a.lo_;
  return out;
}

Interval operator-(const Interval& a, const Interval& b) { return a + (-b); }

Interval operator*(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::empty();
  const double c[4] = {mulc(a.lo_, b.lo_), mulc(a.lo_, b.hi_),
                       mulc(a.hi_, b.lo_), mulc(a.hi_, b.hi_)};
  Interval out;
  out.lo_ = down(std::min({c[0], c[1], c[2], c[3]}));
  out.hi_ = up(std::max({c[0], c[1], c[2], c[3]}));
  return out;
}

Interval operator/(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::empty();
  // Divisor straddling (or touching) zero: the quotient is unbounded in at
  // least one direction; returning the whole line keeps the result sound
  // without case-splitting on signs.
  if (b.lo_ <= 0.0 && b.hi_ >= 0.0) return Interval::universe();
  const double c[4] = {divc(a.lo_, b.lo_), divc(a.lo_, b.hi_),
                       divc(a.hi_, b.lo_), divc(a.hi_, b.hi_)};
  Interval out;
  out.lo_ = down(std::min({c[0], c[1], c[2], c[3]}));
  out.hi_ = up(std::max({c[0], c[1], c[2], c[3]}));
  return out;
}

std::string Interval::str() const {
  if (is_empty()) return "(empty)";
  if (is_universe()) return "(unbounded)";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%.6g, %.6g]", lo_, hi_);
  return buf;
}

}  // namespace sfc::lint
