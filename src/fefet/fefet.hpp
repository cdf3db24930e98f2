// FeFET circuit device: an EKV channel whose threshold voltage is set by
// the Preisach ferroelectric model. The channel's own vth0 is zero - the
// full threshold comes from the polarization state, plus the channel
// temperature coefficient and any Monte Carlo vth shift.
#pragma once

#include "devices/mosfet.hpp"
#include "fefet/preisach.hpp"

namespace sfc::fefet {

struct FeFetParams {
  devices::MosfetParams channel;  ///< channel with vth0 = 0 (see make_*)
  PreisachParams ferroelectric;

  /// Default device used across the reproduction; W/L tuned against the
  /// paper's shape targets (see cim/config.hpp).
  static FeFetParams reference(double w_over_l = 40.0);
};

class FeFet final : public devices::Mosfet {
 public:
  FeFet(std::string name, sfc::spice::NodeId drain, sfc::spice::NodeId gate,
        sfc::spice::NodeId source, FeFetParams params = FeFetParams::reference());

  PreisachModel& ferroelectric() { return fe_; }
  const PreisachModel& ferroelectric() const { return fe_; }

  /// Program with the paper's write protocol at `temperature_c`.
  void write_bit(bool one, double temperature_c = 27.0);

  /// True when polarization points to the low-VTH ('1') state.
  bool stored_bit() const { return fe_.polarization() > 0.0; }

  /// Effective threshold (ferroelectric + channel tempco + MC shift) [V].
  double effective_vth(double temperature_c) const;

 protected:
  /// Feeds the polarization-dependent threshold into the inherited
  /// Mosfet::stamp as vth_extra. The Mosfet temperature-term cache stays
  /// valid because polarization never enters those terms; the device as a
  /// whole remains nonlinear (is_linear() == false via Mosfet).
  double dynamic_vth_offset(double temperature_c) const override {
    return fe_.vth(temperature_c);
  }

 private:
  PreisachModel fe_;
};

}  // namespace sfc::fefet
