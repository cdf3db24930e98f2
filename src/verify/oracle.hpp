// Differential-oracle layer: pairs of independent implementations of the
// same physics, compared point-by-point with a structured diff that names
// the first diverging signal/time-step.
//
// Built-in oracle pairs (see oracle_cases()):
//   * spice_vs_behavioral — the SPICE-level CiM row against the calibrated
//     cim/behavioral lookup model (exact at calibration grid temperatures,
//     bounded interpolation error in between);
//   * serial_vs_parallel_montecarlo — 1-thread vs N-thread sfc::exec
//     fan-out of the Fig. 9 Monte Carlo (bit-exact determinism contract).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace sfc::verify {

/// One diverging point between the two arms of an oracle.
struct Divergence {
  std::string quantity;  ///< signal/series name ("acc", "sample.v_acc", ...)
  std::size_t index = 0; ///< element / time-step index within the series
  std::string label;     ///< human context ("t=3.25e-09", "run2_mac4", ...)
  double a = 0.0;        ///< arm A value
  double b = 0.0;        ///< arm B value
};

struct OracleReport {
  std::string name;
  std::string arm_a;  ///< description of implementation A
  std::string arm_b;  ///< description of implementation B
  bool match = true;
  std::size_t points_compared = 0;
  std::size_t divergences = 0;          ///< total out-of-tolerance points
  std::optional<Divergence> first;      ///< first divergence encountered
  std::vector<std::string> notes;       ///< structural problems (size, ...)

  std::string summary() const;

  /// Compare two equally indexed series under |a-b| <= abs + rel*|a|;
  /// tolerances of 0 demand bit-exact equality. `label_of` (optional)
  /// renders the context string for a diverging index.
  void diff_series(const std::string& quantity, const std::vector<double>& a,
                   const std::vector<double>& b, double tol_abs = 0.0,
                   double tol_rel = 0.0,
                   const std::function<std::string(std::size_t)>& label_of =
                       nullptr);
  /// Compare one scalar pair.
  void diff_value(const std::string& quantity, double a, double b,
                  double tol_abs = 0.0, double tol_rel = 0.0,
                  const std::string& label = "");
  /// Record a structural mismatch (different sizes, a failed run, ...).
  void structural_failure(std::string note);
};

struct OracleCase {
  std::string name;
  std::function<OracleReport()> run;
};

/// Registry of all built-in oracle pairs, in a stable order.
const std::vector<OracleCase>& oracle_cases();

// Individual oracles (also reachable through the registry).
OracleReport oracle_spice_vs_behavioral();
OracleReport oracle_serial_vs_parallel_montecarlo(int threads = 4);

}  // namespace sfc::verify
