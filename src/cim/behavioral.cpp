#include "cim/behavioral.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/interp.hpp"
#include "util/stats.hpp"

namespace sfc::cim {
namespace {

/// The paper's sensing references are designed at room temperature.
constexpr double kDesignTempC = 27.0;

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

BehavioralArrayModel::BehavioralArrayModel(int cells,
                                           std::vector<double> temps_c,
                                           std::vector<double> v,
                                           std::vector<double> sigma)
    : cells_(cells),
      temps_c_(std::move(temps_c)),
      v_(std::move(v)),
      sigma_(std::move(sigma)) {
  if (cells_ < 1) {
    throw std::invalid_argument(
        "BehavioralArrayModel: a row needs at least one cell");
  }
  require_temperature_grid(temps_c_, "BehavioralArrayModel");
  const auto levels = static_cast<std::size_t>(cells_) + 1;
  if (v_.size() != temps_c_.size() * levels || sigma_.size() != levels) {
    throw std::invalid_argument(
        "BehavioralArrayModel: " + std::to_string(v_.size()) + " levels and " +
        std::to_string(sigma_.size()) + " sigmas do not fit " +
        std::to_string(cells_) + " cells at " +
        std::to_string(temps_c_.size()) + " temperatures");
  }
  // Midpoints of the design-temperature levels.
  for (int k = 0; k < cells_; ++k) {
    thresholds_.push_back(
        0.5 * (v_acc(k, kDesignTempC) + v_acc(k + 1, kDesignTempC)));
  }
}

BehavioralArrayModel BehavioralArrayModel::calibrate(
    const ArrayConfig& cfg, const std::vector<double>& temps_c,
    const MonteCarloConfig* variation) {
  require_temperature_grid(temps_c, "BehavioralArrayModel::calibrate");
  const int n = cfg.cells_per_row;
  CiMRow row(cfg);
  row.set_stored(std::vector<int>(static_cast<std::size_t>(n), 1));
  std::vector<double> v;
  v.reserve(temps_c.size() * static_cast<std::size_t>(n + 1));
  for (double t : temps_c) {
    for (const MacResult& r : row.evaluate_levels(t)) {
      if (!r.converged) {
        throw std::runtime_error(
            "BehavioralArrayModel: row failed to converge during "
            "calibration");
      }
      v.push_back(r.v_acc);
    }
  }

  std::vector<double> sigma(static_cast<std::size_t>(n + 1), 0.0);
  if (variation != nullptr) {
    MonteCarloConfig mc = *variation;
    mc.temperature_c = kDesignTempC;
    const MonteCarloResult mcr = run_montecarlo(cfg, mc);
    // Per-MAC standard deviation of the raw output voltage.
    for (int k = 0; k <= n; ++k) {
      std::vector<double> vals;
      for (const auto& s : mcr.samples) {
        if (s.mac == k) vals.push_back(s.v_acc);
      }
      if (!vals.empty()) {
        sigma[static_cast<std::size_t>(k)] = util::stddev(vals);
      }
    }
  }
  return BehavioralArrayModel(n, temps_c, std::move(v), std::move(sigma));
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

}  // namespace sfc::cim
