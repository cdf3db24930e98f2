// Row-level MAC experiments: temperature sweeps of single-cell responses
// (Figs. 3 and 7) and of MAC output-voltage ranges (Figs. 4 and 8).
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "cim/array.hpp"
#include "cim/metrics.hpp"

namespace sfc::cim {

/// Every helper below throws std::runtime_error when a solve fails to
/// converge, naming the cell kind, the temperature, the MAC value and the
/// pattern of the cycle that failed; none drops a point.

/// Single-cell response at one temperature.
struct CellResponse {
  double temperature_c = 0.0;
  double v_out = 0.0;   ///< V_O at the end of the cell phase [V]
  double i_avg = 0.0;   ///< average C0 charging current over the phase [A]
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
};
std::vector<CellCurrentResponse> cell_current_response(
    const ArrayConfig& cfg, const std::vector<double>& temps_c,
    int stored_bit = 1, int input_bit = 1);

/// Figs. 3 and 7: a cell's output current over temperature, normalized to
/// 27 degC. The 2T-1FeFET cell reports its average C0 charging current
/// (cell_temperature_response), the 1FeFET-1R cell its current-mode drain
/// current (cell_current_response); stored bit and input are both '1'.
/// The vectors run parallel to `temps_c`.
struct CellFluctuation {
  std::vector<double> v_out;       ///< cell output node [V]
  std::vector<double> current;     ///< [A]
  std::vector<double> normalized;  ///< current / current at 27 degC
  double max = 0.0;                ///< max |normalized - 1|
};
CellFluctuation cell_fluctuation(const ArrayConfig& cfg,
                                 const std::vector<double>& temps_c);

/// How a MAC level sweep makes the n - k zero products of MAC value k:
/// the first k inputs high with every weight stored '1' (input-driven), or
/// every input high with the first k weights stored '1' (storage-driven).
enum class ZeroPattern { kInputDriven, kStorageDriven };

/// MAC level sweep: the full row at every MAC value k in [0, n], every
/// temperature and both zero patterns. Real workloads mix both patterns,
/// so a level's range covers both.
struct LevelSweepResult {
  struct Cycle {
    double v_acc = 0.0;          ///< [V]
    double energy_per_op = 0.0;  ///< [J]
  };
  int cells = 0;
  std::vector<double> temps_c;
  /// Pattern-major, then temperature (in temps_c order), then MAC value.
  std::vector<Cycle> cycles;

  /// Position in `cycles` of MAC value `mac` in `pattern` at a swept
  /// temperature; throws std::out_of_range for a cycle the sweep did not run.
  std::size_t index(ZeroPattern pattern, double temperature_c, int mac) const;
  const Cycle& at(ZeroPattern pattern, double temperature_c, int mac) const {
    return cycles[index(pattern, temperature_c, mac)];
  }
  /// Min/max of each MAC level over both patterns and the swept
  /// temperatures at or above `t_min_c`.
  std::vector<LevelRange> levels(
      double t_min_c = -std::numeric_limits<double>::infinity()) const;
};

LevelSweepResult mac_level_sweep(const ArrayConfig& cfg,
                                 const std::vector<double>& temps_c);

/// Convert an energy-per-op to TOPS/W (1 / (E_op in pJ) = TOPS/W scale:
/// ops per second per watt / 1e12).
double tops_per_watt(double energy_per_op_joules);

/// Throw the std::runtime_error of a cycle that did not converge: `who`,
/// the cell kind of `cfg`, the temperature, the MAC value and the pattern.
[[noreturn]] void throw_not_converged(const char* who, const ArrayConfig& cfg,
                                      double temperature_c, int mac,
                                      const std::string& pattern);

}  // namespace sfc::cim
