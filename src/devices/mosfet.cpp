#include "devices/mosfet.hpp"

#include <cmath>
#include <stdexcept>

#include "util/units.hpp"

namespace sfc::devices {
namespace {

/// Numerically safe softplus ln(1 + e^x).
double softplus(double x) {
  if (x > 40.0) return x;
  if (x < -40.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

/// Logistic sigma(x) = d softplus / dx.
double logistic(double x) {
  if (x > 40.0) return 1.0;
  if (x < -40.0) return std::exp(x);
  return 1.0 / (1.0 + std::exp(-x));
}

}  // namespace

double MosfetParams::vth(double temperature_c) const {
  return vth0 + tc_vth * (temperature_c - t_nominal_c);
}

double MosfetParams::specific_current(double temperature_c) const {
  const double t_kelvin = util::celsius_to_kelvin(temperature_c);
  const double t_nom_kelvin = util::celsius_to_kelvin(t_nominal_c);
  const double vt = util::thermal_voltage(t_kelvin);
  const double mu = mu0 * std::pow(t_kelvin / t_nom_kelvin, -mu_exponent);
  return 2.0 * n_factor * mu * cox * (w / l) * vt * vt;
}

MosfetParams MosfetParams::finfet14_nmos(double w_over_l) {
  MosfetParams p;
  p.type = MosType::kNmos;
  p.l = 14e-9;
  p.w = w_over_l * p.l;
  return p;
}

MosfetParams MosfetParams::finfet14_pmos(double w_over_l) {
  MosfetParams p = finfet14_nmos(w_over_l);
  p.type = MosType::kPmos;
  p.mu0 = 0.016;  // holes are slower
  return p;
}

MosfetTempTerms mosfet_temp_terms(const MosfetParams& p,
                                  double temperature_c) {
  MosfetTempTerms t;
  const double t_kelvin = util::celsius_to_kelvin(temperature_c);
  t.vt = util::thermal_voltage(t_kelvin);
  t.two_n_vt = 2.0 * p.n_factor * t.vt;
  t.vth = p.vth(temperature_c);
  t.i_spec = p.specific_current(temperature_c);
  return t;
}

MosfetEval evaluate_mosfet(const MosfetParams& p, double vg, double vd,
                           double vs, double temperature_c,
                           double vth_extra) {
  return evaluate_mosfet(p, mosfet_temp_terms(p, temperature_c), vg, vd, vs,
                         vth_extra);
}

MosfetEval evaluate_mosfet(const MosfetParams& p, const MosfetTempTerms& t,
                           double vg, double vd, double vs,
                           double vth_extra) {
  // PMOS is evaluated as an NMOS in a mirrored voltage frame and the
  // current/derivative signs are restored at the end.
  const double sign = p.type == MosType::kNmos ? 1.0 : -1.0;
  const double vg_n = sign * vg;
  const double vd_n = sign * vd;
  const double vs_n = sign * vs;

  const double two_n_vt = t.two_n_vt;
  const double vth = t.vth + vth_extra;
  const double i_spec = t.i_spec;

  const double xf = (vg_n - vs_n - vth) / two_n_vt;
  const double xr = (vg_n - vd_n - vth) / two_n_vt;
  const double ff = softplus(xf);
  const double fr = softplus(xr);
  const double sf = logistic(xf);
  const double sr = logistic(xr);

  const double vds = vd_n - vs_n;
  // Channel-length modulation applied symmetrically so the model stays
  // continuous at vds = 0 (uses |vds|).
  const double clm = 1.0 + p.lambda * std::fabs(vds);
  const double dclm_dvds = (vds >= 0.0 ? p.lambda : -p.lambda);

  const double core = ff * ff - fr * fr;
  const double id = i_spec * core * clm;

  // Partial derivatives in the NMOS frame.
  const double dcore_dvg = (2.0 * ff * sf - 2.0 * fr * sr) / two_n_vt;
  const double dcore_dvd = (2.0 * fr * sr) / two_n_vt;
  // Translation invariance: dvs = -(dvg + dvd) for the core; the CLM term
  // depends only on vds = vd - vs.
  const double gm_g_n = i_spec * clm * dcore_dvg;
  const double gm_d_n = i_spec * (clm * dcore_dvd + core * dclm_dvds);
  const double gm_s_n = -(gm_g_n + gm_d_n);

  MosfetEval ev;
  // Mirrored frame: Id_p(v) = -Id_n(-v); dId_p/dv = +dId_n/dv'(-v).
  ev.id = sign * id;
  ev.gm_g = gm_g_n;
  ev.gm_d = gm_d_n;
  ev.gm_s = gm_s_n;
  return ev;
}

Mosfet::Mosfet(std::string name, sfc::spice::NodeId drain,
               sfc::spice::NodeId gate, sfc::spice::NodeId source,
               MosfetParams params)
    : Device(std::move(name)),
      drain_(drain),
      gate_(gate),
      source_(source),
      params_(params) {
  if (!(params_.w > 0.0) || !(params_.l > 0.0)) {
    throw std::invalid_argument("Mosfet: non-positive geometry");
  }
}

double Mosfet::drain_current(double vg, double vd, double vs,
                             double temperature_c) const {
  return evaluate_mosfet(params_, vg, vd, vs, temperature_c,
                         vth_shift_ + dynamic_vth_offset(temperature_c))
      .id;
}

void Mosfet::stamp(const sfc::spice::SimContext& ctx,
                   sfc::spice::Stamper& s) {
  const double vg = s.v(gate_);
  const double vd = s.v(drain_);
  const double vs = s.v(source_);
  const double vth_extra = vth_shift_ + dynamic_vth_offset(ctx.temperature_c);
  const MosfetEval ev = evaluate_mosfet(params_, temp_terms(ctx.temperature_c),
                                        vg, vd, vs, vth_extra);

  // Linearized drain current (flows drain -> source):
  //   i = id + gm_g*(Vg - vg) + gm_d*(Vd - vd) + gm_s*(Vs - vs)
  const int rd = s.node_row(drain_);
  const int rg = s.node_row(gate_);
  const int rs = s.node_row(source_);
  s.add_matrix(rd, rg, ev.gm_g);
  s.add_matrix(rd, rd, ev.gm_d);
  s.add_matrix(rd, rs, ev.gm_s);
  s.add_matrix(rs, rg, -ev.gm_g);
  s.add_matrix(rs, rd, -ev.gm_d);
  s.add_matrix(rs, rs, -ev.gm_s);
  const double ieq = ev.id - ev.gm_g * vg - ev.gm_d * vd - ev.gm_s * vs;
  s.add_rhs(rd, -ieq);
  s.add_rhs(rs, ieq);

  // Tiny ohmic floor between drain and source aids convergence when the
  // device is deeply off.
  s.conductance(drain_, source_, params_.i_leak_floor);
}

void Mosfet::stamp_ac(const sfc::spice::SimContext& ctx,
                      sfc::spice::AcStamper& s) {
  // Small-signal model at the DC bias: gm (gate), gds (drain), gms
  // (source) as a three-way VCCS exactly mirroring the DC linearization.
  const double vg = s.dc_v(gate_);
  const double vd = s.dc_v(drain_);
  const double vs = s.dc_v(source_);
  const double vth_extra = vth_shift_ + dynamic_vth_offset(ctx.temperature_c);
  const MosfetEval ev =
      evaluate_mosfet(params_, vg, vd, vs, ctx.temperature_c, vth_extra);
  const int rd = s.node_row(drain_);
  const int rg = s.node_row(gate_);
  const int rs = s.node_row(source_);
  s.add_matrix(rd, rg, ev.gm_g);
  s.add_matrix(rd, rd, ev.gm_d);
  s.add_matrix(rd, rs, ev.gm_s);
  s.add_matrix(rs, rg, -ev.gm_g);
  s.add_matrix(rs, rd, -ev.gm_d);
  s.add_matrix(rs, rs, -ev.gm_s);
  s.conductance(drain_, source_, params_.i_leak_floor);
}

}  // namespace sfc::devices
