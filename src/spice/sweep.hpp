// DC sweep with Newton continuation.
//
// run_sweep(Circuit&, SweepSpec) sets each swept value on the circuit
// through SweepSpec::apply and solves the DC operating point, in order:
// each Newton solve warm-starts from the previous converged point (the
// classic I-V continuation trick), so a sweep is a serial recurrence on
// the caller's circuit.
#pragma once

#include <functional>
#include <vector>

#include "spice/engine.hpp"
#include "spice/primitives.hpp"

namespace sfc::spice {

struct SweepPoint {
  double value = 0.0;  ///< swept parameter value
  DcResult op;         ///< operating point at that value
};

/// Declarative description of a DC sweep.
struct SweepSpec {
  /// Swept parameter values, one solve per entry, in this order.
  std::vector<double> values;
  /// Sets a point's value on the circuit before its solve (look devices
  /// up by name, e.g. circuit.find("V1")). Required.
  std::function<void(Circuit&, double)> apply;
  /// Solve temperature [degC].
  double temperature_c = 27.0;
  NewtonOptions options;
};

/// Run the sweep. Points that fail to converge are still returned with
/// op.converged == false; the next point warm-starts from the last one
/// that converged. Throws std::invalid_argument when `spec.apply` is
/// empty.
std::vector<SweepPoint> run_sweep(Circuit& circuit, const SweepSpec& spec);

/// Inclusive linear grid helper: lo, lo+step, ..., hi. A negative step
/// sweeps down from lo to hi. Throws std::invalid_argument for a zero or
/// non-finite step, non-finite bounds, or a step whose sign disagrees
/// with hi - lo.
std::vector<double> linspace_step(double lo, double hi, double step);

}  // namespace sfc::spice
