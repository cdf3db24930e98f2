#include "cim/behavioral.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/interp.hpp"
#include "util/stats.hpp"

namespace sfc::cim {
namespace {

/// MAC values index the calibrated levels 0..cells. This is a check on the
/// caller, so it throws in every build instead of asserting.
void require_mac(int mac, int cells, const char* who) {
  if (mac < 0 || mac > cells) {
    throw std::invalid_argument(std::string(who) + ": MAC value " +
                                std::to_string(mac) + " outside 0.." +
                                std::to_string(cells));
  }
}

/// The levels are known only between the first and last calibrated
/// temperatures; a read beyond them (or at NaN) would be an extrapolation
/// the characterization never made, so it throws in every build.
void require_temperature(double t, const std::vector<double>& temps,
                         const char* who) {
  if (!(t >= temps.front() && t <= temps.back())) {
    std::ostringstream msg;
    msg << who << ": temperature " << t << " degC outside the calibrated "
        << "range " << temps.front() << ".." << temps.back() << " degC";
    throw std::invalid_argument(msg.str());
  }
}

/// v_acc reads the grid's ends as its range and lerps between the first
/// pair around T, so the grid must be finite and strictly increasing.
void require_temperature_grid(const std::vector<double>& temps,
                              const char* who) {
  bool ordered = !temps.empty();
  for (std::size_t i = 0; i < temps.size() && ordered; ++i) {
    ordered = std::isfinite(temps[i]) && (i == 0 || temps[i] > temps[i - 1]);
  }
  if (!ordered) {
    throw std::invalid_argument(
        std::string(who) +
        ": calibration temperatures must be nonempty, finite and strictly "
        "increasing");
  }
}

}  // namespace

BehavioralArrayModel BehavioralArrayModel::calibrate(
    const ArrayConfig& cfg, const std::vector<double>& temps_c,
    const MonteCarloConfig* variation) {
  require_temperature_grid(temps_c, "BehavioralArrayModel::calibrate");
  BehavioralArrayModel m;
  m.cells_ = cfg.cells_per_row;
  m.temps_c_ = temps_c;
  // The paper's sensing references are designed at room temperature.
  m.design_temp_c_ = 27.0;

  const int n = cfg.cells_per_row;
  CiMRow row(cfg);
  row.set_stored(std::vector<int>(static_cast<std::size_t>(n), 1));
  m.v_.reserve(temps_c.size() * static_cast<std::size_t>(n + 1));

  for (double t : temps_c) {
    for (const MacResult& r : row.evaluate_levels(t)) {
      if (!r.converged) {
        throw std::runtime_error(
            "BehavioralArrayModel: row failed to converge during "
            "calibration");
      }
      m.v_.push_back(r.v_acc);
    }
  }

  m.sigma_.assign(static_cast<std::size_t>(n + 1), 0.0);
  if (variation != nullptr) {
    MonteCarloConfig mc = *variation;
    mc.temperature_c = m.design_temp_c_;
    const MonteCarloResult mcr = run_montecarlo(cfg, mc);
    // Per-MAC standard deviation of the raw output voltage.
    for (int k = 0; k <= n; ++k) {
      std::vector<double> vals;
      for (const auto& s : mcr.samples) {
        if (s.mac == k) vals.push_back(s.v_acc);
      }
      if (!vals.empty()) {
        m.sigma_[static_cast<std::size_t>(k)] = util::stddev(vals);
      }
    }
  }

  m.build_thresholds();
  return m;
}

void BehavioralArrayModel::build_thresholds() {
  thresholds_.clear();
  // Level means at the design temperature.
  std::vector<double> design_levels(static_cast<std::size_t>(cells_) + 1);
  for (int k = 0; k <= cells_; ++k) {
    design_levels[static_cast<std::size_t>(k)] = v_acc(k, design_temp_c_);
  }
  for (int k = 0; k < cells_; ++k) {
    thresholds_.push_back(0.5 * (design_levels[static_cast<std::size_t>(k)] +
                                 design_levels[static_cast<std::size_t>(k) + 1]));
  }
}

double BehavioralArrayModel::v_acc(int mac, double temperature_c) const {
  require_mac(mac, cells_, "BehavioralArrayModel::v_acc");
  if (temps_c_.empty()) {
    throw std::logic_error("BehavioralArrayModel::v_acc: model not calibrated");
  }
  require_temperature(temperature_c, temps_c_, "BehavioralArrayModel::v_acc");
  const auto stride = static_cast<std::size_t>(cells_ + 1);
  auto at = [&](std::size_t ti) {
    return v_[ti * stride + static_cast<std::size_t>(mac)];
  };
  // The end points return their stored levels exactly; a lerp there need
  // not reproduce the calibrated bits.
  if (temperature_c <= temps_c_.front()) return at(0);
  if (temperature_c >= temps_c_.back()) return at(temps_c_.size() - 1);
  for (std::size_t ti = 1; ti < temps_c_.size(); ++ti) {
    if (temperature_c <= temps_c_[ti]) {
      return util::lerp(temperature_c, temps_c_[ti - 1], at(ti - 1),
                        temps_c_[ti], at(ti));
    }
  }
  return at(temps_c_.size() - 1);
}

double BehavioralArrayModel::sigma(int mac) const {
  require_mac(mac, cells_, "BehavioralArrayModel::sigma");
  if (sigma_.empty()) return 0.0;
  return sigma_[static_cast<std::size_t>(mac)];
}

int BehavioralArrayModel::decode(double v) const {
  int level = 0;
  for (double th : thresholds_) {
    if (v > th) ++level;
  }
  return level;
}

int BehavioralArrayModel::mac(int true_count, double temperature_c,
                              util::Rng* noise_rng) const {
  double v = v_acc(true_count, temperature_c);
  if (noise_rng != nullptr) {
    v += noise_rng->normal(0.0, sigma(true_count));
  }
  return decode(v);
}

int BehavioralArrayModel::decode_tracking(double v,
                                          double temperature_c) const {
  int level = 0;
  for (int k = 0; k < cells_; ++k) {
    const double threshold =
        0.5 * (v_acc(k, temperature_c) + v_acc(k + 1, temperature_c));
    if (v > threshold) ++level;
  }
  return level;
}

int BehavioralArrayModel::mac_tracking(int true_count, double temperature_c,
                                       util::Rng* noise_rng) const {
  double v = v_acc(true_count, temperature_c);
  if (noise_rng != nullptr) {
    v += noise_rng->normal(0.0, sigma(true_count));
  }
  return decode_tracking(v, temperature_c);
}

std::string BehavioralArrayModel::to_text() const {
  std::ostringstream out;
  out.precision(12);
  out << "sfc-behavioral-v1\n";
  out << cells_ << ' ' << design_temp_c_ << ' ' << temps_c_.size() << '\n';
  for (double t : temps_c_) out << t << ' ';
  out << '\n';
  for (double v : v_) out << v << ' ';
  out << '\n';
  for (double s : sigma_) out << s << ' ';
  out << '\n';
  return out.str();
}

BehavioralArrayModel BehavioralArrayModel::from_text(const std::string& text) {
  std::istringstream in(text);
  std::string magic;
  in >> magic;
  if (magic != "sfc-behavioral-v1") {
    throw std::runtime_error("BehavioralArrayModel: bad header");
  }
  BehavioralArrayModel m;
  std::size_t num_temps = 0;
  in >> m.cells_ >> m.design_temp_c_ >> num_temps;
  if (!in || m.cells_ < 1 || num_temps < 1) {
    throw std::runtime_error("BehavioralArrayModel: bad dimensions");
  }
  m.temps_c_.resize(num_temps);
  for (auto& t : m.temps_c_) in >> t;
  m.v_.resize(num_temps * static_cast<std::size_t>(m.cells_ + 1));
  for (auto& v : m.v_) in >> v;
  m.sigma_.resize(static_cast<std::size_t>(m.cells_ + 1));
  for (auto& s : m.sigma_) in >> s;
  if (!in) throw std::runtime_error("BehavioralArrayModel: truncated data");
  require_temperature_grid(m.temps_c_, "BehavioralArrayModel::from_text");
  m.build_thresholds();
  return m;
}

}  // namespace sfc::cim
