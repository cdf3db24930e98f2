#include "spice/primitives.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace sfc::spice {

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Device(std::move(name)), a_(a), b_(b), ohms_(ohms) {
  if (!(ohms > 0.0)) throw std::invalid_argument("Resistor: non-positive R");
}

void Resistor::stamp(const SimContext& /*ctx*/, Stamper& s) {
  s.conductance(a_, b_, 1.0 / ohms_);
}

void Resistor::stamp_ac(const SimContext& /*ctx*/, AcStamper& s) {
  s.conductance(a_, b_, 1.0 / ohms_);
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads,
                     double ic_volts)
    : Device(std::move(name)), a_(a), b_(b), farads_(farads), ic_(ic_volts) {
  if (!(farads > 0.0)) {
    throw std::invalid_argument("Capacitor: non-positive C");
  }
}

double Capacitor::vdiff_x(const std::vector<double>& x) const {
  const double va = a_ == kGround ? 0.0 : x[static_cast<std::size_t>(a_)];
  const double vb = b_ == kGround ? 0.0 : x[static_cast<std::size_t>(b_)];
  return va - vb;
}

void Capacitor::stamp(const SimContext& ctx, Stamper& s) {
  if (ctx.mode == AnalysisMode::kDcOperatingPoint) {
    return;  // open circuit; engine gmin keeps the node defined
  }
  assert(ctx.dt > 0.0);
  double g, ieq;
  if (ctx.method == IntegrationMethod::kTrapezoidal) {
    g = 2.0 * farads_ / ctx.dt;
    ieq = -g * v_prev_ - i_prev_;
  } else {
    g = farads_ / ctx.dt;
    ieq = -g * v_prev_;
  }
  // Device current a->b: i = g*v + ieq.
  s.conductance(a_, b_, g);
  s.current(a_, b_, ieq);
}

void Capacitor::stamp_ac(const SimContext& /*ctx*/, AcStamper& s) {
  s.capacitance(a_, b_, farads_);
}

void Capacitor::start_transient(const SimContext& /*ctx*/,
                                const std::vector<double>& x) {
  v_prev_ = (ic_ != kNoIc) ? ic_ : vdiff_x(x);
  i_prev_ = 0.0;
}

void Capacitor::accept_step(const SimContext& ctx,
                            const std::vector<double>& x) {
  const double v_now = vdiff_x(x);
  if (ctx.method == IntegrationMethod::kTrapezoidal) {
    const double g = 2.0 * farads_ / ctx.dt;
    i_prev_ = g * (v_now - v_prev_) - i_prev_;
  } else {
    i_prev_ = farads_ / ctx.dt * (v_now - v_prev_);
  }
  v_prev_ = v_now;
}

// ----------------------------------------------------------------- VSource

VSource::VSource(std::string name, NodeId plus, NodeId minus,
                 Waveform waveform)
    : Device(std::move(name)),
      plus_(plus),
      minus_(minus),
      waveform_(std::move(waveform)) {}

VSource::VSource(std::string name, NodeId plus, NodeId minus, double dc_volts)
    : VSource(std::move(name), plus, minus, Waveform::dc(dc_volts)) {}

void VSource::stamp(const SimContext& ctx, Stamper& s) {
  const int k = s.aux_row(aux_base());
  s.add_matrix(s.node_row(plus_), k, 1.0);
  s.add_matrix(s.node_row(minus_), k, -1.0);
  s.add_matrix(k, s.node_row(plus_), 1.0);
  s.add_matrix(k, s.node_row(minus_), -1.0);
  const double v = ctx.mode == AnalysisMode::kDcOperatingPoint
                       ? waveform_.initial()
                       : waveform_.at(ctx.time);
  s.add_rhs(k, v);
}

void VSource::stamp_ac(const SimContext& /*ctx*/, AcStamper& s) {
  const int k = s.aux_row(aux_base());
  s.add_matrix(s.node_row(plus_), k, 1.0);
  s.add_matrix(s.node_row(minus_), k, -1.0);
  s.add_matrix(k, s.node_row(plus_), 1.0);
  s.add_matrix(k, s.node_row(minus_), -1.0);
  // Quiet sources are AC shorts; an excited source injects its magnitude.
  s.add_rhs(k, ac_magnitude_);
}

double VSource::delivered_power(const SimContext& ctx,
                                const std::vector<double>& x) const {
  // x[k] is the current flowing from + into the source; power delivered to
  // the circuit is -V * x[k].
  const double v = ctx.mode == AnalysisMode::kDcOperatingPoint
                       ? waveform_.initial()
                       : waveform_.at(ctx.time);
  const double i = x[ctx.num_nodes + static_cast<std::size_t>(aux_base())];
  return -v * i;
}

void VSource::collect_breakpoints(double t_stop,
                                  std::vector<double>& out) const {
  waveform_.collect_breakpoints(t_stop, out);
}

// ----------------------------------------------------------------- ISource

ISource::ISource(std::string name, NodeId from, NodeId to, Waveform waveform)
    : Device(std::move(name)),
      from_(from),
      to_(to),
      waveform_(std::move(waveform)) {}

ISource::ISource(std::string name, NodeId from, NodeId to, double dc_amps)
    : ISource(std::move(name), from, to, Waveform::dc(dc_amps)) {}

void ISource::stamp(const SimContext& ctx, Stamper& s) {
  const double i = ctx.mode == AnalysisMode::kDcOperatingPoint
                       ? waveform_.initial()
                       : waveform_.at(ctx.time);
  // Source drives current out of `from` (through itself) into `to`:
  // it *extracts* i at from and *injects* i at to.
  s.current(from_, to_, i);
}

double ISource::delivered_power(const SimContext& ctx,
                                const std::vector<double>& x) const {
  const double i = ctx.mode == AnalysisMode::kDcOperatingPoint
                       ? waveform_.initial()
                       : waveform_.at(ctx.time);
  const double vf = from_ == kGround ? 0.0 : x[static_cast<std::size_t>(from_)];
  const double vt = to_ == kGround ? 0.0 : x[static_cast<std::size_t>(to_)];
  return i * (vt - vf);
}

void ISource::collect_breakpoints(double t_stop,
                                  std::vector<double>& out) const {
  waveform_.collect_breakpoints(t_stop, out);
}

// ----------------------------------------------------------------- VSwitch

VSwitch::VSwitch(std::string name, NodeId a, NodeId b, NodeId ctrl,
                 Params params)
    : Device(std::move(name)), a_(a), b_(b), ctrl_(ctrl), p_(params) {
  if (!(p_.r_on > 0.0) || !(p_.r_off > p_.r_on)) {
    throw std::invalid_argument("VSwitch: need 0 < r_on < r_off");
  }
}

namespace {
// The logistic tails are hard-clamped well before they would matter for
// Newton, so a fully-off switch leaks exactly 1/r_off (important for the
// CiM sensing node: a soft tail would bleed cell charge into Cacc during
// the settle phase).
constexpr double kSwitchClampZ = 8.0;

double switch_sigma(double z) {
  if (z > kSwitchClampZ) return 1.0;
  if (z < -kSwitchClampZ) return 0.0;
  return 1.0 / (1.0 + std::exp(-z));
}
}  // namespace

double VSwitch::conductance_at(double v_ctrl) const {
  const double g_on = 1.0 / p_.r_on;
  const double g_off = 1.0 / p_.r_off;
  const double z = (v_ctrl - p_.v_threshold) / p_.v_width;
  return g_off + (g_on - g_off) * switch_sigma(z);
}

void VSwitch::stamp(const SimContext& /*ctx*/, Stamper& s) {
  const double vc = s.v(ctrl_);
  const double vab = vdiff(s, a_, b_);
  const double g = conductance_at(vc);
  // dg/dvc via logistic derivative (zero in the clamped tails).
  const double z = (vc - p_.v_threshold) / p_.v_width;
  const double sig = switch_sigma(z);
  const double dg = (1.0 / p_.r_on - 1.0 / p_.r_off) * sig * (1.0 - sig) / p_.v_width;
  const double gm = dg * vab;  // di/dvc

  s.conductance(a_, b_, g);
  s.vccs(a_, b_, ctrl_, kGround, gm);
  // Residual correction: i = g*vab exactly, linear model gives
  // g*vab + gm*vc + ieq  =>  ieq = -gm*vc.
  s.current(a_, b_, -gm * vc);
}

void VSwitch::stamp_ac(const SimContext& /*ctx*/, AcStamper& s) {
  // Small-signal: the switch is a resistor at its DC control bias (the
  // control-path modulation is negligible for the sensing use case).
  s.conductance(a_, b_, conductance_at(s.dc_v(ctrl_)));
}

}  // namespace sfc::spice
