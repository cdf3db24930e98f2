#include "cim/tile.hpp"

#include <stdexcept>

namespace sfc::cim {

CiMTile::CiMTile(ArrayConfig cfg, std::vector<std::vector<int>> weights)
    : cfg_(cfg), weights_(std::move(weights)), row_(cfg) {
  if (weights_.empty() || weights_.front().empty()) {
    throw std::invalid_argument("CiMTile: empty weight matrix");
  }
  columns_ = static_cast<int>(weights_.front().size());
  for (const auto& row : weights_) {
    if (static_cast<int>(row.size()) != columns_) {
      throw std::invalid_argument("CiMTile: ragged weight matrix");
    }
  }
  const int n = cfg_.cells_per_row;
  segments_ = (columns_ + n - 1) / n;
}

CiMTile::Result CiMTile::multiply(const std::vector<int>& input,
                                  double temperature_c,
                                  const BehavioralArrayModel& adc) {
  if (input.size() != static_cast<std::size_t>(columns_)) {
    throw std::invalid_argument(
        "CiMTile::multiply: input length differs from the column count");
  }
  const int n = cfg_.cells_per_row;

  Result result;
  result.values.assign(weights_.size(), 0);
  result.expected.assign(weights_.size(), 0);
  result.v_acc.assign(weights_.size(), {});

  for (std::size_t r = 0; r < weights_.size(); ++r) {
    for (int seg = 0; seg < segments_; ++seg) {
      std::vector<int> stored(static_cast<std::size_t>(n), 0);
      std::vector<int> bits(static_cast<std::size_t>(n), 0);
      for (int i = 0; i < n; ++i) {
        const int col = seg * n + i;
        if (col >= columns_) break;
        stored[static_cast<std::size_t>(i)] =
            weights_[r][static_cast<std::size_t>(col)];
        bits[static_cast<std::size_t>(i)] =
            input[static_cast<std::size_t>(col)];
      }
      row_.set_stored(stored);
      const MacResult mac = row_.evaluate(bits, temperature_c);
      if (!mac.converged) {
        result.converged = false;
        continue;
      }
      result.v_acc[r].push_back(mac.v_acc);
      result.values[r] += adc.decode(mac.v_acc);
      result.energy_joules += mac.energy_joules;
      for (int i = 0; i < n; ++i) {
        const int col = seg * n + i;
        if (col >= columns_) break;
        result.expected[r] += weights_[r][static_cast<std::size_t>(col)] &
                              input[static_cast<std::size_t>(col)];
      }
    }
  }
  return result;
}

}  // namespace sfc::cim
