// Calibrated behavioural array model.
//
// Full transient simulation of every MAC in a CNN is infeasible (a single
// VGG inference performs ~10^8 row operations), so - like the paper, which
// feeds Spectre-characterized cell behaviour into network-level Monte
// Carlo - we characterize the row once with the circuit simulator and then
// replay it from a lookup table:
//   v(mac, T): mean output voltage, bilinear in T,
//   sigma(mac): process-variation spread (optional, from Monte Carlo),
//   decode(): ADC with thresholds frozen at the 27 degC design
//   temperature, so temperature drift shows up as real misclassified MAC
//   counts.
// A model is nothing but those levels: calibrate() measures them on a
// simulated row, and the constructor builds a model from given ones.
#pragma once

#include <vector>

#include "cim/array.hpp"
#include "cim/montecarlo.hpp"
#include "util/rng.hpp"

namespace sfc::cim {

class BehavioralArrayModel {
 public:
  /// An uncalibrated model, to assign a calibrated one to later: v_acc()
  /// and the MAC reads built on it throw std::logic_error until then.
  BehavioralArrayModel() = default;

  /// A model from its levels. `v[t * (cells + 1) + mac]` is the mean
  /// output voltage of MAC 0..cells at temperature `temps_c[t]`, and
  /// `sigma[mac]` its process-variation spread [V]. The ADC thresholds are
  /// the midpoints of the levels at 27 degC. Throws std::invalid_argument
  /// unless cells >= 1, `temps_c` is nonempty, finite, strictly increasing
  /// and covers 27 degC, `v` holds one level per temperature and MAC, and
  /// `sigma` one value per MAC.
  BehavioralArrayModel(int cells, std::vector<double> temps_c,
                       std::vector<double> v, std::vector<double> sigma);

  /// Characterize a row: simulate every MAC value at every temperature in
  /// `temps_c` (and optionally a Monte Carlo pass for sigma). Throws
  /// std::invalid_argument, before simulating anything, unless `temps_c`
  /// is nonempty, finite and strictly increasing.
  static BehavioralArrayModel calibrate(const ArrayConfig& cfg,
                                        const std::vector<double>& temps_c,
                                        const MonteCarloConfig* variation =
                                            nullptr);

  int cells() const { return cells_; }

  /// Mean output voltage for a MAC value at temperature T (interpolated).
  /// Throws std::invalid_argument when T is NaN or lies outside the
  /// first..last calibrated temperatures: the model does not extrapolate.
  double v_acc(int mac, double temperature_c) const;

  /// Process-variation sigma for a MAC value [V] (0 if not calibrated).
  double sigma(int mac) const;

  /// Simulate one analog MAC readout: mean + optional Gaussian noise,
  /// decoded by the fixed ADC thresholds. Returns the *digital* MAC the
  /// sensing circuit reports. Throws like v_acc() for a temperature
  /// outside the calibrated range.
  int mac(int true_count, double temperature_c,
          util::Rng* noise_rng = nullptr) const;

  /// ADC decode of a raw voltage (nearest design-temperature level).
  int decode(double v) const;

  /// Extension (not in the paper): decode with *temperature-tracking*
  /// references - thresholds recomputed from the calibrated levels at the
  /// actual operating temperature, as a temperature-compensated sensing
  /// periphery would provide. Quantifies how much of the baseline
  /// design's failure a smarter ADC could recover. Throws like v_acc()
  /// for a temperature outside the calibrated range.
  int decode_tracking(double v, double temperature_c) const;

  /// mac() with tracking references; throws like v_acc() for a
  /// temperature outside the calibrated range.
  int mac_tracking(int true_count, double temperature_c,
                   util::Rng* noise_rng = nullptr) const;

  /// Decision thresholds (midpoints of design-temperature levels).
  const std::vector<double>& thresholds() const { return thresholds_; }

 private:
  int cells_ = 0;
  std::vector<double> temps_c_;
  /// v_[t * (cells_+1) + mac]
  std::vector<double> v_;
  std::vector<double> sigma_;
  std::vector<double> thresholds_;
};

}  // namespace sfc::cim
