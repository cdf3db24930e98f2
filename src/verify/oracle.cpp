#include "verify/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "cim/array.hpp"
#include "cim/behavioral.hpp"
#include "cim/montecarlo.hpp"
#include "verify/json.hpp"

namespace sfc::verify {

std::string OracleReport::summary() const {
  std::ostringstream ss;
  ss << name << ": " << (match ? "MATCH" : "DIVERGED") << " ("
     << points_compared << " points";
  if (!match) ss << ", " << divergences << " diverging";
  ss << ")\n  A: " << arm_a << "\n  B: " << arm_b;
  if (first) {
    ss << "\n  first divergence: " << first->quantity << "[" << first->index
       << "]";
    if (!first->label.empty()) ss << " at " << first->label;
    ss << ": A=" << Json::format_number(first->a)
       << " B=" << Json::format_number(first->b);
  }
  for (const auto& n : notes) ss << "\n  note: " << n;
  return ss.str();
}

void OracleReport::diff_series(
    const std::string& quantity, const std::vector<double>& a,
    const std::vector<double>& b, double tol_abs, double tol_rel,
    const std::function<std::string(std::size_t)>& label_of) {
  if (a.size() != b.size()) {
    structural_failure(quantity + ": series length mismatch (" +
                       std::to_string(a.size()) + " vs " +
                       std::to_string(b.size()) + ")");
    return;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    ++points_compared;
    const double allowed = tol_abs + tol_rel * std::fabs(a[i]);
    const bool ok = std::isfinite(a[i]) && std::isfinite(b[i]) &&
                    std::fabs(a[i] - b[i]) <= allowed;
    if (ok) continue;
    ++divergences;
    match = false;
    if (!first) {
      first = Divergence{quantity, i, label_of ? label_of(i) : "", a[i], b[i]};
    }
  }
}

void OracleReport::diff_value(const std::string& quantity, double a, double b,
                              double tol_abs, double tol_rel,
                              const std::string& label) {
  diff_series(quantity, {a}, {b}, tol_abs, tol_rel,
              label.empty()
                  ? std::function<std::string(std::size_t)>()
                  : [&label](std::size_t) { return label; });
}

void OracleReport::structural_failure(std::string note) {
  match = false;
  notes.push_back(std::move(note));
}

// ---------------------------------------------------------------------------
// SPICE row vs behavioural model
// ---------------------------------------------------------------------------
OracleReport oracle_spice_vs_behavioral() {
  OracleReport rep;
  rep.name = "spice_vs_behavioral";
  rep.arm_a = "transient CiMRow simulation (SPICE level)";
  rep.arm_b = "calibrated BehavioralArrayModel lookup";
  const sfc::cim::ArrayConfig cfg = sfc::cim::ArrayConfig::proposed_2t1fefet();
  const std::vector<double> grid = {0.0, 27.0, 85.0};
  const auto model = sfc::cim::BehavioralArrayModel::calibrate(cfg, grid);

  sfc::cim::CiMRow row(cfg);
  row.set_stored(std::vector<int>(static_cast<std::size_t>(row.cells()), 1));
  // Diffs the row's MAC ladder at `t` against the lookup; false when a
  // transient failed (recorded as a structural failure).
  const auto diff_at = [&](double t, const std::string& label,
                           double abs_tol) {
    std::vector<double> spice_v, model_v;
    int mac = 0;
    for (const sfc::cim::MacResult& r : row.evaluate_levels(t)) {
      if (!r.converged) {
        rep.structural_failure("row transient failed to converge");
        return false;
      }
      spice_v.push_back(r.v_acc);
      model_v.push_back(model.v_acc(mac++, t));
    }
    rep.diff_series(label, spice_v, model_v, abs_tol, 0.0, [](std::size_t i) {
      return "mac" + std::to_string(i);
    });
    return true;
  };

  // At calibration grid temperatures the lookup must reproduce the
  // simulation it was built from exactly (same code path, same circuit).
  for (double t : grid) {
    if (!diff_at(t, "v_acc_T" + Json::format_number(t), 0.0)) return rep;
  }
  // Between grid points the model interpolates; hold it to a modelling
  // tolerance (a few mV) rather than bit-exactness.
  diff_at(55.0, "v_acc_T55_interpolated", 5e-3);
  return rep;
}

// ---------------------------------------------------------------------------
// Serial vs parallel Monte Carlo
// ---------------------------------------------------------------------------
OracleReport oracle_serial_vs_parallel_montecarlo(int threads) {
  OracleReport rep;
  rep.name = "serial_vs_parallel_montecarlo";
  rep.arm_a = "run_montecarlo, 1 thread";
  rep.arm_b = "run_montecarlo, " + std::to_string(threads) + " threads";
  sfc::cim::MonteCarloConfig mc;
  mc.runs = 6;
  mc.sigma_vt_fefet = 0.054;
  mc.mac_values = {0, 4, 8};
  const sfc::cim::ArrayConfig cfg = sfc::cim::ArrayConfig::proposed_2t1fefet();

  mc.exec = sfc::exec::ExecPolicy::serial();
  const auto a = sfc::cim::run_montecarlo(cfg, mc);
  mc.exec.threads = threads;
  const auto b = sfc::cim::run_montecarlo(cfg, mc);

  if (a.samples.size() != b.samples.size()) {
    rep.structural_failure("sample count mismatch");
    return rep;
  }
  std::vector<double> va, vb;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    if (a.samples[i].run != b.samples[i].run ||
        a.samples[i].mac != b.samples[i].mac) {
      rep.structural_failure("sample ordering mismatch at index " +
                             std::to_string(i));
      return rep;
    }
    va.push_back(a.samples[i].v_acc);
    vb.push_back(b.samples[i].v_acc);
    labels.push_back("run" + std::to_string(a.samples[i].run) + "_mac" +
                     std::to_string(a.samples[i].mac));
  }
  rep.diff_series("sample.v_acc", va, vb, 0.0, 0.0,
                  [&labels](std::size_t i) { return labels[i]; });
  rep.diff_series("nominal_levels", a.nominal_levels, b.nominal_levels);
  rep.diff_value("max_error_percent", a.max_error_percent,
                 b.max_error_percent);
  return rep;
}

const std::vector<OracleCase>& oracle_cases() {
  static const std::vector<OracleCase> cases = {
      {"spice_vs_behavioral", [] { return oracle_spice_vs_behavioral(); }},
      {"serial_vs_parallel_montecarlo",
       [] { return oracle_serial_vs_parallel_montecarlo(); }},
  };
  return cases;
}

}  // namespace sfc::verify
