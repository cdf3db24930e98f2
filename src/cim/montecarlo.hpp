// Monte Carlo process-variation analysis (Fig. 9): Gaussian VTH
// variability on every FeFET, measuring how far
// each MAC output moves relative to the nominal level spacing.
//
// Determinism contract
// --------------------
// Run k draws its device-variation vector from the counter-based stream
// exec::stream_seed(seed, k) and simulates a private row replica, so the
// samples are a pure function of (cfg, mc) alone: the same `seed` yields
// bit-identical MonteCarloResult samples regardless of `exec.threads` or
// scheduling. Threads only change wall-clock time (see
// MonteCarloResult::job).
#pragma once

#include <cstdint>
#include <vector>

#include "cim/array.hpp"
#include "exec/parallel.hpp"

namespace sfc::cim {

struct MonteCarloConfig {
  int runs = 100;                 ///< paper: 100
  double sigma_vt_fefet = 0.054;  ///< paper: 54 mV
  double temperature_c = 27.0;
  std::uint64_t seed = 0x5eed2024;
  /// MAC values to exercise each run; empty = all 0..n.
  std::vector<int> mac_values;
  /// Fan-out of the independent runs (default: serial). Any thread count
  /// produces bit-identical samples — see the header comment.
  sfc::exec::ExecPolicy exec;
};

/// Global process corner: die-to-die shifts applied to every device on
/// top of (or instead of) the local Monte Carlo variation.
struct ProcessCorner {
  const char* name = "TT";
  double dvth = 0.0;            ///< global VTH shift, all devices [V]
  double mobility_scale = 1.0;  ///< mu0 multiplier, all devices
};

/// The classic five corners (TT/SS/FF/SF/FS collapse to three for an
/// all-NMOS datapath; slow = higher VTH + lower mobility).
std::vector<ProcessCorner> standard_corners();

/// Apply a corner to every device parameter set inside an ArrayConfig.
ArrayConfig apply_corner(const ArrayConfig& cfg, const ProcessCorner& corner);

struct MonteCarloSample {
  int run = 0;
  int mac = 0;
  double v_acc = 0.0;
  /// |v - v_nominal| as a percentage of the full-scale output range
  /// (nominal MAC=n minus MAC=0), the normalization the paper's Fig. 9
  /// "CiM output error" uses.
  double error_percent = 0.0;
  /// Same deviation as a fraction of one nominal level spacing - the
  /// number that decides whether the ADC misreads the MAC.
  double error_levels = 0.0;
};

/// The samples of a Monte Carlo analysis and their statistics. The solver
/// work of its MAC cycles is counted by the trace ledger, not here
/// (DESIGN.md §11).
struct MonteCarloResult {
  std::vector<MonteCarloSample> samples;
  std::vector<double> nominal_levels;  ///< v_acc per MAC without variation
  double level_spacing = 0.0;          ///< mean spacing of nominal levels
  double full_scale = 0.0;             ///< nominal MAC=n minus MAC=0 [V]
  double max_error_percent = 0.0;
  double mean_error_percent = 0.0;
  /// Worst deviation in level-spacing units (> 0.5 means the ADC decodes
  /// the wrong MAC for that sample).
  double max_error_levels = 0.0;
  bool all_converged = true;
  /// The Monte Carlo fan-out: its wall time, each run's own wall time in
  /// job.task_ms (indexed by run, measured inside the run), and in
  /// job.failed the runs in which some MAC cycle did not converge.
  sfc::exec::JobReport job;

  std::vector<double> errors() const;
};

MonteCarloResult run_montecarlo(const ArrayConfig& cfg,
                                const MonteCarloConfig& mc);

}  // namespace sfc::cim
