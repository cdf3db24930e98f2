#include "spice/waveform.hpp"

#include <cmath>
#include <stdexcept>

namespace sfc::spice {

Waveform Waveform::dc(double level) {
  Waveform w;
  w.kind_ = Kind::kDc;
  w.level_ = level;
  return w;
}

Waveform Waveform::pulse(double v1, double v2, double delay, double rise,
                         double fall, double width, double period,
                         int cycles) {
  // Negated so a NaN parameter fails too.
  if (!(rise >= 0.0 && fall >= 0.0 && width >= 0.0)) {
    throw std::invalid_argument("PULSE: rise, fall and width must be >= 0");
  }
  if (!(period <= 0.0 || period >= rise + width + fall)) {
    throw std::invalid_argument(
        "PULSE: period shorter than rise + width + fall");
  }
  Waveform w;
  w.kind_ = Kind::kPulse;
  w.v1_ = v1;
  w.v2_ = v2;
  w.delay_ = delay;
  // Zero-length edges would make the waveform discontinuous and Newton
  // unhappy; give them a tiny but finite slope.
  w.rise_ = std::max(rise, 1e-15);
  w.fall_ = std::max(fall, 1e-15);
  w.width_ = width;
  w.period_ = period;
  w.cycles_ = cycles;
  return w;
}

Waveform Waveform::pwl(std::vector<std::pair<double, double>> points) {
  Waveform w;
  w.kind_ = Kind::kPwl;
  w.pwl_ = util::PiecewiseLinear(std::move(points));
  return w;
}

Waveform Waveform::sine(double offset, double amplitude, double freq_hz,
                        double delay) {
  Waveform w;
  w.kind_ = Kind::kSine;
  w.level_ = offset;
  w.amplitude_ = amplitude;
  w.freq_hz_ = freq_hz;
  w.delay_ = delay;
  return w;
}

double Waveform::at(double t) const {
  switch (kind_) {
    case Kind::kDc:
      return level_;
    case Kind::kSine:
      if (t < delay_) return level_;
      return level_ + amplitude_ * std::sin(2.0 * M_PI * freq_hz_ * (t - delay_));
    case Kind::kPwl:
      return pwl_(t);
    case Kind::kPulse: {
      if (t < delay_) return v1_;
      double local = t - delay_;
      if (period_ > 0.0) {
        const double cycle = std::floor(local / period_);
        if (cycles_ >= 0 && cycle >= cycles_) return v1_;
        local -= cycle * period_;
      } else if (cycles_ == 0) {
        return v1_;
      }
      if (local < rise_) return v1_ + (v2_ - v1_) * (local / rise_);
      local -= rise_;
      if (local < width_) return v2_;
      local -= width_;
      if (local < fall_) return v2_ + (v1_ - v2_) * (local / fall_);
      return v1_;
    }
  }
  return 0.0;
}

std::pair<double, double> Waveform::range() const {
  switch (kind_) {
    case Kind::kDc:
      return {level_, level_};
    case Kind::kSine: {
      double lo = level_ - std::fabs(amplitude_);
      double hi = level_ + std::fabs(amplitude_);
      if (delay_ > 0.0) {
        // Holds the plain offset until the delay elapses; the envelope
        // already contains it, but be explicit for amplitude < 0 quirks.
        lo = std::min(lo, level_);
        hi = std::max(hi, level_);
      }
      return {lo, hi};
    }
    case Kind::kPwl: {
      // Linear between breakpoints and constant outside them, so over
      // t >= 0 every extremum is at t = 0 or at a breakpoint (one before
      // t = 0 can only widen the bound).
      double lo = at(0.0);
      double hi = lo;
      for (const auto& point : pwl_.points()) {
        lo = std::min(lo, point.second);
        hi = std::max(hi, point.second);
      }
      return {lo, hi};
    }
    case Kind::kPulse:
      return {std::min(v1_, v2_), std::max(v1_, v2_)};
  }
  return {0.0, 0.0};
}

void Waveform::collect_breakpoints(double t_stop,
                                   std::vector<double>& out) const {
  switch (kind_) {
    case Kind::kDc:
    case Kind::kSine:
      return;
    case Kind::kPwl:
      for (const auto& point : pwl_.points()) {
        const double t = point.first;
        if (t > 0.0 && t < t_stop) out.push_back(t);
      }
      return;
    case Kind::kPulse: {
      const double cycle_len = period_ > 0.0 ? period_ : t_stop + 1.0;
      for (int c = 0;; ++c) {
        if (cycles_ >= 0 && c >= std::max(cycles_, 1)) break;
        const double base = delay_ + static_cast<double>(c) * cycle_len;
        if (base >= t_stop) break;
        const double corners[4] = {base, base + rise_, base + rise_ + width_,
                                   base + rise_ + width_ + fall_};
        for (double corner : corners) {
          if (corner > 0.0 && corner < t_stop) out.push_back(corner);
        }
        if (period_ <= 0.0) break;
      }
      return;
    }
  }
}

}  // namespace sfc::spice
