// EKV-style compact MOSFET model, smooth and charge-sheet-consistent from
// deep subthreshold through saturation, with first-order temperature
// physics:
//   * thermal voltage kT/q,
//   * threshold shift  VTH(T) = VTH0 + tc_vth * (T - T0),
//   * mobility        mu(T)  = mu0 * (T/T0)^(-mu_exponent).
//
// This is the reproduction's stand-in for the Intel 14 nm FinFET PDK model
// the paper pairs with the Preisach FeFET model (see DESIGN.md). The model
// is symmetric in drain/source (forward minus reverse EKV currents), which
// matters because the 2T-1FeFET feedback cell swings its internal nodes.
#pragma once

#include <limits>

#include "spice/device.hpp"

namespace sfc::devices {

enum class MosType { kNmos, kPmos };

struct MosfetParams {
  MosType type = MosType::kNmos;
  double w = 100e-9;            ///< channel width [m]
  double l = 14e-9;             ///< channel length [m]
  double vth0 = 0.35;           ///< threshold voltage at t_nominal_c [V]
  double n_factor = 1.25;       ///< subthreshold slope factor
  double mu0 = 0.040;           ///< low-field mobility at t_nominal_c [m^2/Vs]
  double cox = 0.025;           ///< gate oxide capacitance [F/m^2]
  double lambda = 0.04;         ///< channel-length modulation [1/V]
  double tc_vth = -0.9e-3;      ///< dVTH/dT [V/K]
  double mu_exponent = 1.5;     ///< mobility power-law exponent
  double t_nominal_c = 27.0;    ///< parameter reference temperature [degC]
  double i_leak_floor = 1e-16;  ///< ohmic leakage floor conductance scale

  /// Specific current 2*n*mu*Cox*(W/L)*VT^2 at temperature T [A].
  double specific_current(double temperature_c) const;
  double vth(double temperature_c) const;

  /// Reference-like parameter set for the reproduction's "14 nm FinFET".
  static MosfetParams finfet14_nmos(double w_over_l = 4.0);
  static MosfetParams finfet14_pmos(double w_over_l = 4.0);
};

/// Operating-point evaluation shared by the circuit device and unit tests.
struct MosfetEval {
  double id = 0.0;   ///< drain current, positive d->s for NMOS [A]
  double gm_g = 0.0; ///< dId/dVg
  double gm_d = 0.0; ///< dId/dVd
  double gm_s = 0.0; ///< dId/dVs
};

/// Temperature-dependent model terms hoisted out of the per-stamp
/// evaluation. Computing them needs pow/exp, and the engine re-evaluates
/// the model every Newton iteration at an unchanged temperature, so the
/// circuit device memoizes these per temperature (a pure function of
/// (params, T) — caching is bitwise-transparent).
struct MosfetTempTerms {
  double vt = 0.0;        ///< thermal voltage kT/q [V]
  double two_n_vt = 0.0;  ///< 2*n*VT subthreshold denominator [V]
  double vth = 0.0;       ///< VTH(T) before per-device shifts [V]
  double i_spec = 0.0;    ///< specific current at T [A]
};
MosfetTempTerms mosfet_temp_terms(const MosfetParams& p, double temperature_c);

/// Evaluate the model at terminal voltages (vg, vd, vs) and temperature.
/// `vth_extra` shifts the threshold (used for FeFET polarization and for
/// Monte Carlo process variation).
MosfetEval evaluate_mosfet(const MosfetParams& p, double vg, double vd,
                           double vs, double temperature_c,
                           double vth_extra = 0.0);

/// Same evaluation with precomputed temperature terms (the hot path).
MosfetEval evaluate_mosfet(const MosfetParams& p, const MosfetTempTerms& t,
                           double vg, double vd, double vs,
                           double vth_extra = 0.0);

/// Three-terminal MOSFET circuit device (bulk tied to source).
class Mosfet : public sfc::spice::Device {
 public:
  Mosfet(std::string name, sfc::spice::NodeId drain, sfc::spice::NodeId gate,
         sfc::spice::NodeId source, MosfetParams params);

  /// The stamp linearizes the channel current around the terminal
  /// voltages of the Newton iterate: intrinsically nonlinear (this is the
  /// Device default, restated here because the stamp-plan engine depends
  /// on it).
  bool is_linear() const override { return false; }
  void stamp(const sfc::spice::SimContext& ctx,
             sfc::spice::Stamper& s) override;
  void stamp_ac(const sfc::spice::SimContext& ctx,
                sfc::spice::AcStamper& s) override;
  std::vector<sfc::spice::NodeId> terminals() const override {
    return {drain_, gate_, source_};
  }

  const MosfetParams& params() const { return params_; }

  /// Additional threshold shift (process variation injection).
  void set_vth_shift(double volts) { vth_shift_ = volts; }
  double vth_shift() const { return vth_shift_; }

  /// Drain current at explicit terminal voltages (probe helper).
  double drain_current(double vg, double vd, double vs,
                       double temperature_c) const;

 protected:
  /// Threshold shift applied on top of params + vth_shift_ (FeFET
  /// polarization hook; returns 0 for a plain MOSFET).
  virtual double dynamic_vth_offset(double temperature_c) const {
    (void)temperature_c;
    return 0.0;
  }

 private:
  /// Memoized mosfet_temp_terms(params_, temperature_c). Race-free
  /// because a circuit is solved by one thread at a time (parallel Monte
  /// Carlo runs each build their own row).
  const MosfetTempTerms& temp_terms(double temperature_c) const {
    if (temperature_c != terms_temp_c_) {
      terms_ = mosfet_temp_terms(params_, temperature_c);
      terms_temp_c_ = temperature_c;
    }
    return terms_;
  }

  sfc::spice::NodeId drain_, gate_, source_;
  MosfetParams params_;
  double vth_shift_ = 0.0;
  mutable double terms_temp_c_ = std::numeric_limits<double>::quiet_NaN();
  mutable MosfetTempTerms terms_;
};

}  // namespace sfc::devices
