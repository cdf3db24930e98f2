// Multi-domain Preisach model of the HfO2 ferroelectric gate stack.
//
// The ferroelectric layer is discretized into N independent domains with
// coercive voltages drawn from a Gaussian (deterministic quantiles, so the
// nominal device is reproducible). Each domain carries a normalized
// dipole state in [-1, +1]; a write pulse moves eligible domains toward
// the field direction with a Merz-law switching time
//     tau(V) = tau0 * exp(v_activation / (|V| - vc_domain)),
// which is what makes the paper's +4 V/115 ns vs -4 V/200 ns programming
// pulse widths meaningful. The mean polarization maps linearly onto the
// device threshold window [vth_low, vth_high].
//
// Temperature enters twice, following the measured trends in
// Gupta et al. (IRPS'20) that the paper builds on:
//   * coercive voltage drops with temperature (tc_vc), and
//   * the remnant-polarization memory window shrinks (tc_mw), which makes
//     the high-VTH state more temperature-sensitive than the low-VTH
//     state - exactly the asymmetry shown in the paper's Fig. 1.
#pragma once

#include <vector>

namespace sfc::fefet {

struct PreisachParams {
  int num_domains = 64;
  double vc_mean = 2.4;        ///< mean coercive voltage [V]
  double vc_sigma = 0.35;      ///< domain-to-domain spread [V]
  /// VTH with full "up" polarization [V]. Chosen so the 0.35 V read
  /// voltage sits in the subthreshold region of the low-VTH state (the
  /// paper's Fig. 1 operating point - the source node rides above 0.1 V
  /// during the read, keeping VGS - VTH well negative) while the 1.3 V
  /// saturation read is comfortably above it.
  double vth_low = 0.25;
  double vth_high = 1.70;      ///< VTH with full "down" polarization [V]
  double tau0 = 2e-9;          ///< Merz prefactor, positive pulses [s]
  double tau0_negative = 3e-9; ///< Merz prefactor, negative pulses [s]
  double v_activation = 1.4;   ///< Merz activation voltage [V]
  double tc_vc = -2.0e-3;      ///< d(vc)/dT [V/K]
  /// Fractional memory-window shrink per K. Together with the channel's
  /// own tc_vth this makes the low-VTH state mildly and the high-VTH
  /// state strongly temperature-dependent (Fig. 1 asymmetry).
  double tc_mw = -3.0e-3;
  double t_nominal_c = 27.0;

  // --- retention (thermal depolarization) --------------------------------
  /// Arrhenius activation energy of depolarization [eV]. With the
  /// attempt time below this gives ~10-year retention at 85 degC,
  /// typical of HfO2 FeFET data.
  double retention_ea_ev = 1.35;
  double retention_tau0 = 1e-9;  ///< attempt time [s]

  // --- read disturb -------------------------------------------------------
  /// Sub-coercive pulses nudge domains with an exponentially suppressed
  /// rate: progress ~ (dt / disturb_tau0) * exp(-(vc - |V|)/disturb_slope).
  /// Zero disturb_slope disables the mechanism (hard threshold).
  double disturb_tau0 = 1e-3;    ///< [s]
  double disturb_slope = 0.15;   ///< [V]
};

class PreisachModel {
 public:
  explicit PreisachModel(PreisachParams params = {});

  /// Apply a rectangular gate pulse of `volts` for `seconds` at the given
  /// temperature. Positive pulses drive domains toward +1 (low VTH).
  void apply_pulse(double volts, double seconds, double temperature_c);

  /// Quasi-static field application: every eligible domain switches fully
  /// (the limit of a very long pulse). Used for hysteresis-loop tracing.
  void apply_quasistatic(double volts, double temperature_c);

  /// Mean normalized polarization in [-1, +1]. Cached: every mutator
  /// recomputes it, summing the domains in index order.
  double polarization() const { return polarization_; }

  /// Effective threshold voltage contributed by the ferroelectric at the
  /// given temperature [V].
  double vth(double temperature_c) const;

  /// Remnant memory window vth_high - vth_low at temperature [V].
  double memory_window(double temperature_c) const;

  /// Directly force the polarization state (programming shortcut for
  /// array-level experiments where the write protocol is not under test).
  void set_polarization(double p);

  /// Paper write protocol (Sec. III-B): '1' = +4 V / 115 ns -> low VTH;
  /// '0' = -4 V / 200 ns -> high VTH. Issued at the given temperature.
  void write_bit(bool one, double temperature_c);

  /// Retention: thermally activated depolarization over `seconds` of
  /// storage at `temperature_c`. Every domain decays toward zero dipole
  /// with the Arrhenius time constant retention_tau(temperature_c).
  void age(double seconds, double temperature_c);

  /// Depolarization time constant at a temperature [s].
  double retention_tau(double temperature_c) const;

  /// Read disturb: apply `cycles` sub-coercive gate pulses of `volts` x
  /// `seconds` each. Uses the exponentially suppressed sub-threshold
  /// nucleation tail, so millions of reads produce a measurable but small
  /// polarization shift while a single read does nothing noticeable.
  void read_disturb(double volts, double seconds, long cycles,
                    double temperature_c);

  /// Coercive voltage of domain i at temperature [V].
  double domain_vc(int i, double temperature_c) const;

  const PreisachParams& params() const { return p_; }
  int num_domains() const { return static_cast<int>(state_.size()); }
  double domain_state(int i) const { return state_[static_cast<std::size_t>(i)]; }

 private:
  /// Recomputes polarization_ from state_; every mutator ends with it.
  void update_polarization();

  PreisachParams p_;
  std::vector<double> vc_;     ///< per-domain coercive voltage at t_nominal
  std::vector<double> state_;  ///< per-domain dipole in [-1, +1]
  double polarization_ = 0.0;  ///< mean of state_
};

}  // namespace sfc::fefet
