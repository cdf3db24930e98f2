// Energy accounting: the energy per op and TOPS/W summary the paper
// reports (Fig. 8b, Table II).
#pragma once

#include <vector>

#include "cim/array.hpp"

namespace sfc::cim {

/// Average energy per op over all MAC values at one temperature; the
/// number behind "3.14 fJ / 2866 TOPS/W".
struct EnergySummary {
  double mean_energy_per_op = 0.0;   ///< [J]
  double tops_per_watt = 0.0;
  std::vector<double> energy_per_op_by_mac;  ///< [J], index = MAC value
};

/// The mean of the per-MAC energies per op and its TOPS/W.
EnergySummary summarize_energy(std::vector<double> energy_per_op_by_mac);

/// summarize_energy over the MAC-level ladder (input-driven zeros, every
/// weight '1') at `temperature_c`. Throws std::runtime_error naming the
/// cycle when one fails to converge.
EnergySummary measure_energy(const ArrayConfig& cfg, double temperature_c);

}  // namespace sfc::cim
