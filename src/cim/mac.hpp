// Row-level MAC experiments: temperature sweeps of single-cell responses
// (Figs. 3 and 7) and of MAC output-voltage ranges (Figs. 4 and 8).
#pragma once

#include <vector>

#include "cim/array.hpp"
#include "cim/metrics.hpp"

namespace sfc::cim {

/// Single-cell response at one temperature.
struct CellResponse {
  double temperature_c = 0.0;
  double v_out = 0.0;   ///< V_O at the end of the cell phase [V]
  double i_avg = 0.0;   ///< average C0 charging current over the phase [A]
  bool converged = false;
};

/// Sweep a single cell (stored bit / input bit as given) over temperature.
/// Uses a one-cell row of the given configuration.
std::vector<CellResponse> cell_temperature_response(
    const ArrayConfig& cfg, const std::vector<double>& temps_c,
    int stored_bit = 1, int input_bit = 1);

/// Fig. 3 experiment: *current-mode* readout of a single 1FeFET-1R cell,
/// reproducing the measurement style of [17] - the cell output is clamped
/// near the SL rail by a small sense resistor (cfg.cell1r.r_current_sense)
/// and the DC drain current is recorded at each temperature. The WL level
/// follows cfg (0.35 V subthreshold / 1.3 V saturation).
struct CellCurrentResponse {
  double temperature_c = 0.0;
  double i_drain = 0.0;  ///< FeFET drain current through the sense R [A]
  double v_out = 0.0;    ///< clamped output node voltage [V]
  bool converged = false;
};
std::vector<CellCurrentResponse> cell_current_response(
    const ArrayConfig& cfg, const std::vector<double>& temps_c,
    int stored_bit = 1, int input_bit = 1);

/// Figs. 3 and 7: a cell's output current over temperature, normalized to
/// 27 degC. The 2T-1FeFET cell reports its average C0 charging current
/// (cell_temperature_response), the 1FeFET-1R cell its current-mode drain
/// current (cell_current_response); stored bit and input are both '1'.
/// Only converged points are kept, so the vectors run parallel.
struct CellFluctuation {
  std::vector<double> temps_c;
  std::vector<double> v_out;       ///< cell output node [V]
  std::vector<double> current;     ///< [A]
  std::vector<double> normalized;  ///< current / current at 27 degC
  double max = 0.0;                ///< max |normalized - 1|
};
CellFluctuation cell_fluctuation(const ArrayConfig& cfg,
                                 const std::vector<double>& temps_c);

/// MAC level sweep: for every MAC value k in [0, n] and every temperature,
/// run the full row and collect the output voltage. Two activation
/// patterns are exercised per k (input-driven zeros and storage-driven
/// zeros) and the level range covers both.
struct LevelSweepResult {
  /// Min/max over temperatures AND patterns.
  std::vector<LevelRange> levels;
  /// Mean energy per op at each MAC value, averaged over temperatures [J].
  std::vector<double> energy_per_op_by_mac;
  bool all_converged = true;
};

LevelSweepResult mac_level_sweep(const ArrayConfig& cfg,
                                 const std::vector<double>& temps_c);

/// Convert an energy-per-op to TOPS/W (1 / (E_op in pJ) = TOPS/W scale:
/// ops per second per watt / 1e12).
double tops_per_watt(double energy_per_op_joules);

}  // namespace sfc::cim
