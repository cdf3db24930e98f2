#include "cim/energy.hpp"

#include <algorithm>

#include "cim/mac.hpp"

namespace sfc::cim {

EnergyBreakdown energy_breakdown(const MacResult& result) {
  EnergyBreakdown b;
  for (const auto& [name, joules] : result.waveforms.source_energy) {
    b.per_source.push_back({name, joules});
    b.total_joules += joules;
  }
  std::sort(b.per_source.begin(), b.per_source.end(),
            [](const auto& x, const auto& y) { return x.joules > y.joules; });
  b.per_op_joules = result.ops > 0
                        ? b.total_joules / static_cast<double>(result.ops)
                        : 0.0;
  b.tops_per_watt = tops_per_watt(b.per_op_joules);
  return b;
}

EnergySummary measure_energy(const ArrayConfig& cfg, double temperature_c) {
  const int n = cfg.cells_per_row;
  CiMRow row(cfg);
  row.set_stored(std::vector<int>(static_cast<std::size_t>(n), 1));

  EnergySummary summary;
  summary.energy_per_op_by_mac.assign(static_cast<std::size_t>(n) + 1, 0.0);
  const std::vector<MacResult> levels = row.evaluate_levels(temperature_c);
  double sum = 0.0;
  int count = 0;
  for (std::size_t k = 0; k < levels.size(); ++k) {
    if (!levels[k].converged) continue;
    summary.energy_per_op_by_mac[k] = levels[k].energy_per_op();
    sum += levels[k].energy_per_op();
    ++count;
  }
  if (count > 0) summary.mean_energy_per_op = sum / count;
  summary.tops_per_watt = tops_per_watt(summary.mean_energy_per_op);
  return summary;
}

}  // namespace sfc::cim
