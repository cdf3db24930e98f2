// Unified DC sweep API.
//
// One entry point — run_sweep(Circuit&, SweepSpec, ExecPolicy) — covers
// the three historical sweep flavours:
//   * source sweeps with Newton continuation (each point warm-starts from
//     the previous solution; inherently serial),
//   * generic parameter sweeps (apply() mutates the circuit per point),
//   * temperature sweeps (no apply(): the swept value IS the solve
//     temperature; points are independent and parallelize).
//
// Independent (continuation == false) sweeps always solve a fresh
// Circuit::clone() per point — also at threads == 1 — so the result is a
// pure function of (circuit, spec) and bit-identical at any thread count.
// See DESIGN.md ("Concurrency model & API migration") for how the removed
// dc_sweep_vsource / dc_sweep / temperature_sweep signatures map onto
// SweepSpec.
#pragma once

#include <functional>
#include <vector>

#include "exec/parallel.hpp"
#include "spice/engine.hpp"
#include "spice/primitives.hpp"

namespace sfc::spice {

struct SweepPoint {
  double value = 0.0;  ///< swept parameter value
  DcResult op;         ///< operating point at that value
};

/// Declarative description of a DC sweep.
struct SweepSpec {
  /// Swept parameter values, one solve per entry.
  std::vector<double> values;
  /// Mutates the circuit before a point's solve. In continuation mode it
  /// receives the original circuit; otherwise each point's private clone
  /// (look devices up by name, e.g. circuit.find("V1")). When absent, the
  /// swept value is interpreted as the solve temperature [degC].
  std::function<void(Circuit&, double)> apply;
  /// Warm-start each Newton solve from the previous point's solution (the
  /// classic I-V continuation trick). Points become order-dependent, so
  /// the sweep runs serially on the original circuit regardless of the
  /// ExecPolicy.
  bool continuation = false;
  /// Solve temperature [degC]; ignored when `apply` is absent (the swept
  /// value takes its place).
  double temperature_c = 27.0;
  NewtonOptions options;
};

/// Run the sweep. Points that fail to converge are still returned with
/// op.converged == false. `report` (optional) receives per-point wall
/// times and convergence counts.
std::vector<SweepPoint> run_sweep(Circuit& circuit, const SweepSpec& spec,
                                  const sfc::exec::ExecPolicy& exec = {},
                                  sfc::exec::JobReport* report = nullptr);

/// Inclusive linear grid helper: lo, lo+step, ..., hi. A negative step
/// sweeps down from lo to hi. Throws std::invalid_argument for a zero or
/// non-finite step, non-finite bounds, or a step whose sign disagrees
/// with hi - lo.
std::vector<double> linspace_step(double lo, double hi, double step);
/// Inclusive n-point grid. Throws std::invalid_argument when n < 2.
std::vector<double> linspace_count(double lo, double hi, std::size_t n);

}  // namespace sfc::spice
