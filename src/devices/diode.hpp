// Exponential junction diode with series-resistance-free Shockley model
// and voltage limiting for Newton robustness. Not used by the CiM cells
// themselves, but part of the device library (ESD clamps / rectifier
// examples, netlist completeness).
#pragma once

#include "spice/device.hpp"

namespace sfc::devices {

struct DiodeParams {
  double i_sat = 1e-14;      ///< saturation current at t_nominal_c [A]
  double emission = 1.0;     ///< ideality factor
  double t_nominal_c = 27.0;
  double xti = 3.0;          ///< Is temperature exponent (SPICE XTI)
  double eg = 1.11;          ///< bandgap [eV] for the Is activation term
};

class Diode : public sfc::spice::Device {
 public:
  Diode(std::string name, sfc::spice::NodeId anode,
        sfc::spice::NodeId cathode, DiodeParams params = {});

  /// Exponential I(V): nonlinear (the Device default, restated because
  /// the stamp-plan engine relies on it).
  bool is_linear() const override { return false; }
  void stamp(const sfc::spice::SimContext& ctx,
             sfc::spice::Stamper& s) override;
  void stamp_ac(const sfc::spice::SimContext& ctx,
                sfc::spice::AcStamper& s) override;
  std::vector<sfc::spice::NodeId> terminals() const override {
    return {anode_, cathode_};
  }

  /// I(V) evaluation for tests.
  double current(double v_anode_cathode, double temperature_c) const;

 private:
  sfc::spice::NodeId anode_, cathode_;
  DiodeParams p_;
  /// Memoized Is(T)/N*VT(T) — the pow/exp temperature law is loop-
  /// invariant across Newton iterations. The mutable cache is race-free
  /// because a circuit is solved by one thread at a time.
  mutable double cache_temp_c_ = -1e300;
  mutable double cache_vt_ = 0.0;
  mutable double cache_isat_ = 0.0;
};

}  // namespace sfc::devices
