// Calibration validation: runs the headline experiments on a configuration
// and reports the paper's figures of merit side by side with the target
// bands from the paper. Tests and EXPERIMENTS.md are generated from this.
#pragma once

#include <string>
#include <vector>

#include "cim/mac.hpp"

namespace sfc::cim {

struct CalibrationReport {
  // Measured values.
  double fluct_1r_saturation = 0.0;
  double fluct_1r_subthreshold = 0.0;
  double fluct_2t = 0.0;
  double fluct_2t_above_20c = 0.0;
  double nmr_min_1r_subthreshold = 0.0;
  double nmr_min_2t = 0.0;
  double nmr_min_2t_above_20c = 0.0;
  int nmr_argmin_2t = -1;
  double energy_per_op = 0.0;
  double tops_per_watt = 0.0;

  /// The qualitative claims of the paper, evaluated on our measurements.
  bool subthreshold_worse_than_saturation() const {
    return fluct_1r_subthreshold > fluct_1r_saturation;
  }
  bool proposed_beats_subthreshold_baseline() const {
    return fluct_2t < fluct_1r_subthreshold;
  }
  bool proposed_array_separable() const { return nmr_min_2t > 0.0; }
  bool baseline_array_overlaps() const { return nmr_min_1r_subthreshold < 0.0; }

  std::string to_string() const;
};

/// Run the full calibration suite (cell sweeps, level sweeps, energy) on
/// the default configurations. `temps_c` defaults to the paper grid.
CalibrationReport run_calibration(
    const std::vector<double>& temps_c = default_temperature_grid());

}  // namespace sfc::cim
