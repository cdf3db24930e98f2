#include "cim/array.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sfc::cim {

using sfc::spice::Capacitor;
using sfc::spice::Engine;
using sfc::spice::kGround;
using sfc::spice::TransientOptions;
using sfc::spice::VSource;
using sfc::spice::VSwitch;
using sfc::spice::Waveform;

ArrayConfig ArrayConfig::proposed_2t1fefet() {
  ArrayConfig cfg;
  cfg.kind = CellKind::k2T1FeFet;
  cfg.subthreshold_read = true;
  return cfg;
}

ArrayConfig ArrayConfig::baseline_1r_subthreshold() {
  ArrayConfig cfg;
  cfg.kind = CellKind::k1FeFet1R;
  cfg.subthreshold_read = true;
  return cfg;
}

ArrayConfig ArrayConfig::baseline_1r_saturation() {
  ArrayConfig cfg;
  cfg.kind = CellKind::k1FeFet1R;
  cfg.subthreshold_read = false;
  return cfg;
}

std::vector<double> default_temperature_grid() {
  return {0.0, 10.0, 20.0, 27.0, 40.0, 55.0, 70.0, 85.0};
}

namespace {

/// A row's per-cell arguments hold one value per cell. This is a check on
/// the caller, so it throws in every build instead of asserting.
void require_cells(std::size_t got, int cells, const char* who) {
  if (got != static_cast<std::size_t>(cells)) {
    throw std::invalid_argument(std::string(who) + ": expected " +
                                std::to_string(cells) + " values, got " +
                                std::to_string(got));
  }
}

}  // namespace

std::vector<int> level_inputs(int cells, int k) {
  if (k < 0 || k > cells) {
    throw std::invalid_argument("level_inputs: MAC value " +
                                std::to_string(k) + " outside 0.." +
                                std::to_string(cells));
  }
  std::vector<int> inputs(static_cast<std::size_t>(cells), 0);
  std::fill_n(inputs.begin(), k, 1);
  return inputs;
}

CiMRow::CiMRow(ArrayConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.cells_per_row < 1) {
    throw std::invalid_argument("CiMRow: need >= 1 cell");
  }

  // Shared rails.
  const auto bl = circuit_.node("bl");
  const auto sl = circuit_.node("sl");
  const auto en = circuit_.node("en");
  const auto acc = circuit_.node(kAccNode);
  circuit_.add<VSource>("BL", bl, kGround, cfg_.bias.v_bl);
  circuit_.add<VSource>("SL", sl, kGround, cfg_.bias.v_sl);
  // EN driver with output resistance + line load so its switching energy
  // is dissipated (and therefore counted) each cycle.
  const auto en_drv = circuit_.node("endrv");
  en_ = &circuit_.add<VSource>("EN", en_drv, kGround, 0.0);
  circuit_.add<sfc::spice::Resistor>("REN", en_drv, en,
                                     cfg_.sense.r_en_driver);
  circuit_.add<Capacitor>("CEN", en, kGround, cfg_.sense.c_en_load);
  // Cacc starts discharged: Eq. (1) assumes pure charge redistribution
  // from the cell capacitors.
  circuit_.add<Capacitor>("CACC", acc, kGround, cfg_.sense.c_acc,
                          /*ic=*/0.0);

  cells_.reserve(static_cast<std::size_t>(cfg_.cells_per_row));
  for (int i = 0; i < cfg_.cells_per_row; ++i) {
    CellHandles h;
    if (cfg_.kind == CellKind::k2T1FeFet) {
      h = build_cell_2t1fefet(circuit_, cfg_.cell2t, i, "bl", "sl");
    } else {
      h = build_cell_1fefet1r(circuit_, cfg_.cell1r, i, "bl", "sl");
    }
    // EN switch from the cell output into the accumulation node.
    circuit_.add<VSwitch>("SEN" + std::to_string(i), circuit_.node(h.out_node),
                          acc, en, cfg_.sense.en_switch);
    cells_.push_back(h);
  }
  circuit_.finalize();
}

void CiMRow::program(const std::vector<int>& weights,
                     double write_temperature_c) {
  require_cells(weights.size(), cfg_.cells_per_row, "CiMRow::program");
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cells_[i].fefet->write_bit(weights[i] != 0, write_temperature_c);
  }
}

void CiMRow::set_stored(const std::vector<int>& weights) {
  require_cells(weights.size(), cfg_.cells_per_row, "CiMRow::set_stored");
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cells_[i].fefet->ferroelectric().set_polarization(weights[i] != 0 ? 1.0
                                                                      : -1.0);
  }
}

std::vector<int> CiMRow::stored() const {
  std::vector<int> bits;
  bits.reserve(cells_.size());
  for (const auto& h : cells_) bits.push_back(h.fefet->stored_bit() ? 1 : 0);
  return bits;
}

void CiMRow::set_fefet_vth_shifts(const std::vector<double>& shifts) {
  require_cells(shifts.size(), cfg_.cells_per_row,
                "CiMRow::set_fefet_vth_shifts");
  for (std::size_t i = 0; i < shifts.size(); ++i) {
    cells_[i].fefet->set_vth_shift(shifts[i]);
  }
}

MacResult CiMRow::evaluate(const std::vector<int>& inputs,
                           double temperature_c, bool keep_waveforms) {
  require_cells(inputs.size(), cfg_.cells_per_row, "CiMRow::evaluate");
  const ReadTiming& t = cfg_.timing;
  const double wl_level = cfg_.wl_read_level();

  // WL pulse spans the cell phase; inputs of '0' keep the WL grounded so
  // the FeFET conducts nothing regardless of its stored state.
  const double wl_width = t.t_settle - t.t_wl_start - 2.0 * t.t_edge;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i] != 0) {
      cells_[i].wl->set_waveform(Waveform::pulse(
          0.0, wl_level, t.t_wl_start, t.t_edge, t.t_edge, wl_width,
          /*period=*/0.0, /*cycles=*/1));
    } else {
      cells_[i].wl->set_waveform(Waveform::dc(cfg_.bias.v_wl_off));
    }
  }
  // EN rises right after the cell phase and stays high through the share
  // phase (Eq. 1 charge redistribution).
  en_->set_waveform(Waveform::pulse(0.0, cfg_.sense.v_en_high,
                                    t.t_settle + t.t_edge, t.t_edge, t.t_edge,
                                    t.t_share, /*period=*/0.0, /*cycles=*/1));

  if (!engine_) {
    engine_.emplace(circuit_, temperature_c);
  } else {
    engine_->set_temperature_c(temperature_c);
  }
  Engine& engine = *engine_;
  TransientOptions opts;
  opts.dt = t.dt;
  opts.method = sfc::spice::IntegrationMethod::kTrapezoidal;
  opts.newton = cfg_.newton;

  MacResult result;
  result.ops = cfg_.cells_per_row + 1;
  sfc::spice::TransientResult tr = engine.transient(t.t_total(), opts);
  result.converged = tr.converged;
  if (!tr.converged) return result;

  result.v_acc = tr.final_value(kAccNode);
  result.v_cell.reserve(cells_.size());
  for (const auto& h : cells_) {
    result.v_cell.push_back(tr.at(h.out_node, t.t_settle));
  }
  result.energy_joules = tr.total_source_energy();
  if (keep_waveforms) result.waveforms = std::move(tr);
  return result;
}

std::vector<MacResult> CiMRow::evaluate_levels(double temperature_c) {
  const int n = cfg_.cells_per_row;
  std::vector<MacResult> levels;
  levels.reserve(static_cast<std::size_t>(n) + 1);
  for (int k = 0; k <= n; ++k) {
    levels.push_back(evaluate(level_inputs(n, k), temperature_c));
  }
  return levels;
}

}  // namespace sfc::cim
