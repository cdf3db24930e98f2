#include "cim/energy.hpp"

#include <utility>

#include "cim/mac.hpp"

namespace sfc::cim {

EnergySummary summarize_energy(std::vector<double> energy_per_op_by_mac) {
  EnergySummary summary;
  double sum = 0.0;
  for (double e : energy_per_op_by_mac) sum += e;
  if (!energy_per_op_by_mac.empty()) {
    summary.mean_energy_per_op =
        sum / static_cast<double>(energy_per_op_by_mac.size());
  }
  summary.tops_per_watt = tops_per_watt(summary.mean_energy_per_op);
  summary.energy_per_op_by_mac = std::move(energy_per_op_by_mac);
  return summary;
}

EnergySummary measure_energy(const ArrayConfig& cfg, double temperature_c) {
  CiMRow row(cfg);
  row.set_stored(std::vector<int>(static_cast<std::size_t>(row.cells()), 1));
  std::vector<double> energy;
  for (const MacResult& r : row.evaluate_levels(temperature_c)) {
    if (!r.converged) {
      throw_not_converged("measure_energy", cfg, temperature_c,
                          static_cast<int>(energy.size()),
                          "input-driven zeros");
    }
    energy.push_back(r.energy_per_op());
  }
  return summarize_energy(std::move(energy));
}

}  // namespace sfc::cim
