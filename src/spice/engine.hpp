// Simulation engine: Newton-Raphson DC operating point (with damping and
// gmin stepping) and fixed/breakpoint-aware transient analysis with energy
// accounting. This is the stand-in for the commercial simulator the paper
// used (Cadence Spectre); see DESIGN.md for the substitution rationale.
#pragma once

#include <vector>

#include "spice/circuit.hpp"
#include "spice/results.hpp"

namespace sfc::spice {

struct NewtonOptions {
  int max_iterations = 200;
  /// Absolute voltage tolerance [V].
  double vtol = 1e-9;
  /// Relative tolerance on solution components.
  double reltol = 1e-6;
  /// gmin used on every node when the plain solve succeeds (the stepping
  /// fallback starts at 1e-3 S and divides by 10 per stage down to it).
  double gmin_final = 1e-12;

  // --- solver hot path (see DESIGN.md "Solver hot path") -------------
  /// Assemble through the compiled stamp plan: linear devices + gmin are
  /// stamped once per solve into a cached baseline, each Newton iteration
  /// restores the baseline with a memcpy and restamps only the nonlinear
  /// devices, and the system is solved through the workspace's compiled
  /// LuPlan (no per-iteration heap allocation). Off = each iteration runs
  /// the reference instead, a full assemble() plus dense lu_solve(): the
  /// reference that tests compare against. Both paths are bit-identical.
  bool use_stamp_plan = true;
};

/// Reusable per-Engine solver buffers: the Newton system, the cached
/// linear baseline, the structural stamp pattern and the compiled LU
/// plan. Sized lazily on first use and invalidated when the system size,
/// analysis mode, or circuit plan version changes.
struct SolverWorkspace {
  DenseMatrix a;              ///< working matrix, factored in place
  DenseMatrix a_base;         ///< linear stamps + gmin baseline
  std::vector<double> b;      ///< working RHS, solved in place
  std::vector<double> b_base; ///< linear-stamp RHS baseline
  std::vector<char> pattern;  ///< structural nonzeros (row-major flags)
  LuPlan plan;
  std::size_t size = 0;
  AnalysisMode mode = AnalysisMode::kDcOperatingPoint;
  std::uint64_t plan_version = 0;
  bool pattern_valid = false;
};

struct TransientOptions {
  /// Nominal time step [s]. The engine shortens steps to hit waveform
  /// breakpoints and halves them on Newton failure.
  double dt = 1e-11;
  IntegrationMethod method = IntegrationMethod::kTrapezoidal;
  NewtonOptions newton;
};

class Engine {
 public:
  /// The engine mutates device state during transient runs; the circuit
  /// must outlive the engine.
  Engine(Circuit& circuit, double temperature_c);

  double temperature_c() const { return temperature_c_; }
  void set_temperature_c(double t) { temperature_c_ = t; }

  /// DC operating point at the engine temperature. Sources are evaluated
  /// at t = 0. `warm_start` (optional) seeds Newton with a previous
  /// solution — the continuation trick used by DC sweeps.
  DcResult dc_operating_point(const NewtonOptions& options = {},
                              const std::vector<double>* warm_start = nullptr);

  /// Transient from t = 0 to t_stop. Performs a DC operating point first
  /// (sources at t = 0).
  TransientResult transient(double t_stop, const TransientOptions& options);

  /// AC small-signal sweep: solve the DC operating point, then
  /// (G + jwC) x = b at every frequency. Excite exactly one source via
  /// VSource::set_ac_magnitude before calling.
  AcResult ac(const std::vector<double>& frequencies_hz,
              const NewtonOptions& options = {});

  /// One Newton solve of the system at the given context. `x` is the
  /// initial guess on entry and the solution on success; `iterations_out`,
  /// if given, receives the iterations taken (the trace ledger counts them
  /// either way). Public so tests can exercise the hot path directly; most
  /// callers want dc_operating_point()/transient().
  bool newton_solve(const SimContext& ctx, std::vector<double>& x,
                    const NewtonOptions& options, int* iterations_out);

  /// Reference assembly: the system A x = b that a Newton iteration at
  /// iterate `x` solves, stamped from zero. `a` and `b` must be sized
  /// system_size(). Newton with use_stamp_plan off solves it directly;
  /// tests and the fuzzer re-assemble it at a solution to measure the KCL
  /// residual.
  void assemble(const SimContext& ctx, const std::vector<double>& x,
                DenseMatrix& a, std::vector<double>& b) const;

  /// Hot-path workspace for the given analysis mode (diagnostics:
  /// compiled-plan inspection in tests). One workspace per mode so the
  /// DC phase of every transient doesn't wipe the transient plan.
  const SolverWorkspace& workspace(
      AnalysisMode mode = AnalysisMode::kDcOperatingPoint) const {
    return workspaces_[static_cast<int>(mode)];
  }

 private:
  /// The stamp order, written once: stamp_linear (linear devices, then
  /// gmin on every node diagonal) before stamp_nonlinear. assemble() runs
  /// both; the stamp plan caches stamp_linear as its per-solve baseline
  /// and reruns stamp_nonlinear each iteration. Floating-point addition is
  /// not associative, so the shared order is what keeps both paths
  /// bit-identical.
  void stamp_linear(const SimContext& ctx, Stamper& s) const;
  void stamp_nonlinear(const SimContext& ctx, Stamper& s) const;

  /// Damped Newton update x += clamp(x_new - x); returns true when the
  /// step is within tolerances.
  bool apply_update(std::vector<double>& x, const std::vector<double>& x_new,
                    const NewtonOptions& options) const;

  /// (Re)size the mode's workspace, dropping stale pattern/plan state,
  /// and stamp its per-solve baseline (see NewtonOptions::use_stamp_plan).
  SolverWorkspace& stamp_baseline(const SimContext& ctx,
                                  const std::vector<double>& x);

  /// One stamp-plan iteration: restore the baseline, restamp the
  /// nonlinear devices and solve in ws.b through the compiled LuPlan.
  bool plan_assemble_and_solve(const SimContext& ctx,
                               const std::vector<double>& x,
                               SolverWorkspace& ws);

  std::vector<std::string> signal_names() const;
  std::vector<double> breakpoints(double t_stop) const;

  Circuit& circuit_;
  double temperature_c_;
  /// Indexed by AnalysisMode (DC and transient stamp patterns differ).
  SolverWorkspace workspaces_[2];
};

/// Logarithmic frequency grid for AC sweeps: f_start..f_stop inclusive.
std::vector<double> log_frequency_grid(double f_start, double f_stop,
                                       int points_per_decade);

}  // namespace sfc::spice
