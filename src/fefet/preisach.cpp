#include "fefet/preisach.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"
#include "util/units.hpp"

namespace sfc::fefet {

PreisachModel::PreisachModel(PreisachParams params) : p_(params) {
  if (p_.num_domains < 1) {
    throw std::invalid_argument("PreisachModel: need >= 1 domain");
  }
  if (!(p_.vth_high > p_.vth_low)) {
    throw std::invalid_argument("PreisachModel: vth_high must exceed vth_low");
  }
  const auto n = static_cast<std::size_t>(p_.num_domains);
  vc_.resize(n);
  state_.assign(n, -1.0);  // pristine device in the high-VTH state
  // Deterministic Gaussian quantiles: midpoints of n equal-probability
  // strata. Keeps the nominal device identical across runs; Monte Carlo
  // variation is injected at the VTH level, not here.
  for (std::size_t i = 0; i < n; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    vc_[i] = p_.vc_mean + p_.vc_sigma * util::probit(q);
    vc_[i] = std::max(vc_[i], 0.05);  // physical floor
  }
  update_polarization();
}

double PreisachModel::domain_vc(int i, double temperature_c) const {
  const double base = vc_.at(static_cast<std::size_t>(i));
  return std::max(0.05, base + p_.tc_vc * (temperature_c - p_.t_nominal_c));
}

void PreisachModel::apply_pulse(double volts, double seconds,
                                double temperature_c) {
  if (volts == 0.0 || seconds <= 0.0) return;
  const double direction = volts > 0.0 ? 1.0 : -1.0;
  const double magnitude = std::fabs(volts);
  const double tau0 = volts > 0.0 ? p_.tau0 : p_.tau0_negative;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    const double vc = domain_vc(static_cast<int>(i), temperature_c);
    if (magnitude <= vc) continue;  // below coercive field: no switching
    const double tau = tau0 * std::exp(p_.v_activation / (magnitude - vc));
    const double progress = 1.0 - std::exp(-seconds / tau);
    // Move the dipole toward the target by the switching fraction.
    state_[i] += (direction - state_[i]) * progress;
  }
  update_polarization();
}

void PreisachModel::apply_quasistatic(double volts, double temperature_c) {
  if (volts == 0.0) return;
  const double direction = volts > 0.0 ? 1.0 : -1.0;
  const double magnitude = std::fabs(volts);
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (magnitude > domain_vc(static_cast<int>(i), temperature_c)) {
      state_[i] = direction;
    }
  }
  update_polarization();
}

void PreisachModel::update_polarization() {
  double sum = 0.0;
  for (double s : state_) sum += s;
  polarization_ = sum / static_cast<double>(state_.size());
}

double PreisachModel::memory_window(double temperature_c) const {
  const double mw0 = p_.vth_high - p_.vth_low;
  const double scale = 1.0 + p_.tc_mw * (temperature_c - p_.t_nominal_c);
  return mw0 * std::max(scale, 0.0);
}

double PreisachModel::vth(double temperature_c) const {
  const double mid = 0.5 * (p_.vth_high + p_.vth_low);
  return mid - polarization() * 0.5 * memory_window(temperature_c);
}

void PreisachModel::set_polarization(double p) {
  p = std::clamp(p, -1.0, 1.0);
  for (double& s : state_) s = p;
  update_polarization();
}

void PreisachModel::write_bit(bool one, double temperature_c) {
  if (one) {
    apply_pulse(+4.0, 115e-9, temperature_c);
  } else {
    apply_pulse(-4.0, 200e-9, temperature_c);
  }
}

double PreisachModel::retention_tau(double temperature_c) const {
  const double kt_ev =
      sfc::util::kBoltzmann * sfc::util::celsius_to_kelvin(temperature_c) /
      sfc::util::kElementaryCharge;
  return p_.retention_tau0 * std::exp(p_.retention_ea_ev / kt_ev);
}

void PreisachModel::age(double seconds, double temperature_c) {
  if (seconds <= 0.0) return;
  const double decay = std::exp(-seconds / retention_tau(temperature_c));
  for (double& s : state_) s *= decay;
  update_polarization();
}

void PreisachModel::read_disturb(double volts, double seconds, long cycles,
                                 double temperature_c) {
  if (volts == 0.0 || seconds <= 0.0 || cycles <= 0 ||
      p_.disturb_slope <= 0.0) {
    return;
  }
  const double direction = volts > 0.0 ? 1.0 : -1.0;
  const double magnitude = std::fabs(volts);
  const double total_time = seconds * static_cast<double>(cycles);
  const double tau0 = volts > 0.0 ? p_.tau0 : p_.tau0_negative;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    const double vc = domain_vc(static_cast<int>(i), temperature_c);
    double rate;
    if (magnitude > vc) {
      // Above this domain's coercive voltage: ordinary Merz switching.
      rate = 1.0 / (tau0 * std::exp(p_.v_activation / (magnitude - vc)));
    } else {
      // Sub-coercive nucleation tail.
      rate = std::exp(-(vc - magnitude) / p_.disturb_slope) / p_.disturb_tau0;
    }
    const double progress = 1.0 - std::exp(-total_time * rate);
    state_[i] += (direction - state_[i]) * progress;
  }
  update_polarization();
}

}  // namespace sfc::fefet
