// Time-domain stimulus waveforms for independent sources: DC, PULSE
// (SPICE semantics), PWL and SIN. Waveforms know their own corner times
// so the transient engine can align steps to pulse edges.
#pragma once

#include <vector>

#include "util/interp.hpp"

namespace sfc::spice {

class Waveform {
 public:
  /// Constant level.
  static Waveform dc(double level);

  /// SPICE PULSE(v1 v2 delay rise fall width period). `cycles` < 0 means
  /// repeat forever; 0 or more limits the number of pulses. A period <= 0
  /// never repeats. Throws std::invalid_argument for a negative rise, fall
  /// or width, or for 0 < period < rise + width + fall.
  static Waveform pulse(double v1, double v2, double delay, double rise,
                        double fall, double width, double period,
                        int cycles = -1);

  /// Piecewise-linear (time, value) points; constant before/after.
  /// Throws std::invalid_argument unless there is at least one point and
  /// the times strictly increase.
  static Waveform pwl(std::vector<std::pair<double, double>> points);

  /// offset + amplitude * sin(2*pi*freq*(t-delay)), 0 before delay.
  static Waveform sine(double offset, double amplitude, double freq_hz,
                       double delay = 0.0);

  /// Default: 0 V DC (member initializers already encode this).
  Waveform() = default;

  double at(double t) const;
  void collect_breakpoints(double t_stop, std::vector<double>& out) const;

  /// Value at t=0 (used by the DC operating point preceding a transient).
  double initial() const { return at(0.0); }

  /// Conservative {min, max} of the waveform over all t >= 0. Exact for
  /// DC/PULSE/PWL; for SIN it is the offset +/- amplitude envelope (plus
  /// the pre-delay level). Used by the static operating-point analysis
  /// (src/lint) to bound source nodes over a whole transient.
  std::pair<double, double> range() const;

 private:
  enum class Kind { kDc, kPulse, kPwl, kSine };
  Kind kind_ = Kind::kDc;

  // DC / SIN parameters.
  double level_ = 0.0;
  double amplitude_ = 0.0;
  double freq_hz_ = 0.0;
  double delay_ = 0.0;

  // PULSE parameters.
  double v1_ = 0.0, v2_ = 0.0, rise_ = 0.0, fall_ = 0.0, width_ = 0.0,
         period_ = 0.0;
  int cycles_ = -1;

  util::PiecewiseLinear pwl_;
};

}  // namespace sfc::spice
