// Linear/primitive circuit elements: resistor, capacitor, independent
// sources, and a smooth voltage-controlled switch (the EN switch in the CiM
// sensing circuit).
#pragma once

#include "spice/device.hpp"
#include "spice/waveform.hpp"

namespace sfc::spice {

class Resistor final : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double ohms);

  bool is_linear() const override { return true; }
  void stamp(const SimContext& ctx, Stamper& s) override;
  void stamp_ac(const SimContext& ctx, AcStamper& s) override;
  std::vector<NodeId> terminals() const override { return {a_, b_}; }

  double resistance() const { return ohms_; }

 private:
  NodeId a_, b_;
  double ohms_;
};

class Capacitor final : public Device {
 public:
  /// `ic_volts`: optional initial voltage (a -> b) forced at transient
  /// start; NaN (default) takes the DC operating point value.
  Capacitor(std::string name, NodeId a, NodeId b, double farads,
            double ic_volts = kNoIc);

  static constexpr double kNoIc = -1e30;

  /// The companion model only reads committed step state (v_prev_,
  /// i_prev_), never the Newton iterate.
  bool is_linear() const override { return true; }
  void stamp(const SimContext& ctx, Stamper& s) override;
  void stamp_ac(const SimContext& ctx, AcStamper& s) override;
  void start_transient(const SimContext& ctx,
                       const std::vector<double>& x) override;
  void accept_step(const SimContext& ctx,
                   const std::vector<double>& x) override;
  std::vector<NodeId> terminals() const override { return {a_, b_}; }

  double capacitance() const { return farads_; }
  /// True when an explicit `ic=` initial condition was given.
  bool has_initial_condition() const { return ic_ != kNoIc; }
  /// The explicit initial condition (a -> b) [V]; kNoIc when absent.
  double initial_condition() const { return ic_; }
  /// Voltage across the capacitor at the last accepted step.
  double voltage() const { return v_prev_; }

 private:
  double vdiff_x(const std::vector<double>& x) const;

  NodeId a_, b_;
  double farads_;
  double ic_;
  double v_prev_ = 0.0;
  double i_prev_ = 0.0;
};

/// Independent voltage source (one auxiliary branch-current variable).
class VSource final : public Device {
 public:
  VSource(std::string name, NodeId plus, NodeId minus, Waveform waveform);
  VSource(std::string name, NodeId plus, NodeId minus, double dc_volts);

  int num_aux() const override { return 1; }
  bool is_linear() const override { return true; }
  void stamp(const SimContext& ctx, Stamper& s) override;
  void stamp_ac(const SimContext& ctx, AcStamper& s) override;
  double delivered_power(const SimContext& ctx,
                         const std::vector<double>& x) const override;
  void collect_breakpoints(double t_stop,
                           std::vector<double>& out) const override;
  std::vector<NodeId> terminals() const override { return {plus_, minus_}; }

  void set_waveform(Waveform w) { waveform_ = std::move(w); }
  const Waveform& waveform() const { return waveform_; }
  /// Convenience for DC sweeps.
  void set_dc(double volts) { waveform_ = Waveform::dc(volts); }

  /// AC analysis stimulus magnitude [V] (0 = quiet source). The phase is
  /// zero; use one excited source per transfer-function measurement.
  void set_ac_magnitude(double volts) { ac_magnitude_ = volts; }

 private:
  NodeId plus_, minus_;
  Waveform waveform_;
  double ac_magnitude_ = 0.0;
};

/// Independent current source driving current from `from`, through the
/// source, into `to`.
class ISource final : public Device {
 public:
  ISource(std::string name, NodeId from, NodeId to, Waveform waveform);
  ISource(std::string name, NodeId from, NodeId to, double dc_amps);

  bool is_linear() const override { return true; }
  void stamp(const SimContext& ctx, Stamper& s) override;
  double delivered_power(const SimContext& ctx,
                         const std::vector<double>& x) const override;
  void collect_breakpoints(double t_stop,
                           std::vector<double>& out) const override;
  std::vector<NodeId> terminals() const override { return {from_, to_}; }

  void set_dc(double amps) { waveform_ = Waveform::dc(amps); }

 private:
  NodeId from_, to_;
  Waveform waveform_;
};

/// Smooth voltage-controlled switch: conductance interpolates between
/// off/on over a narrow logistic transition of the control voltage,
/// keeping the Newton iteration differentiable.
class VSwitch final : public Device {
 public:
  struct Params {
    double r_on = 100.0;        ///< on resistance [ohm]
    double r_off = 1e12;        ///< off resistance [ohm]
    double v_threshold = 0.6;   ///< control voltage at half transition [V]
    double v_width = 0.05;      ///< logistic transition width [V]
  };

  VSwitch(std::string name, NodeId a, NodeId b, NodeId ctrl, Params params);

  /// Nonlinear (inherited default): the stamp linearizes around the
  /// control voltage read from the Newton iterate.
  void stamp(const SimContext& ctx, Stamper& s) override;
  void stamp_ac(const SimContext& ctx, AcStamper& s) override;
  std::vector<NodeId> terminals() const override { return {a_, b_, ctrl_}; }

  /// Conductance at a given control voltage (exposed for tests).
  double conductance_at(double v_ctrl) const;

  const Params& params() const { return p_; }

 private:
  NodeId a_, b_, ctrl_;
  Params p_;
};

}  // namespace sfc::spice
