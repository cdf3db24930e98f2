#include "cim/mac.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sfc::cim {

std::vector<CellResponse> cell_temperature_response(
    const ArrayConfig& cfg, const std::vector<double>& temps_c,
    int stored_bit, int input_bit) {
  ArrayConfig one = cfg;
  one.cells_per_row = 1;
  CiMRow row(one);
  row.set_stored({stored_bit});

  const bool is_2t = one.kind == CellKind::k2T1FeFet;
  const double c0 = is_2t ? one.cell2t.c0 : one.cell1r.c0;
  const double v0 = is_2t ? one.cell2t.c0_initial : one.cell1r.c0_initial;
  std::vector<CellResponse> responses;
  responses.reserve(temps_c.size());
  for (double t : temps_c) {
    MacResult r = row.evaluate({input_bit}, t);
    CellResponse cr;
    cr.temperature_c = t;
    cr.converged = r.converged;
    if (r.converged) {
      cr.v_out = r.v_cell.at(0);
      // Average charging current of C0 over the cell phase, measured from
      // the known precharge level.
      cr.i_avg = c0 * (cr.v_out - v0) / one.timing.t_settle;
    }
    responses.push_back(cr);
  }
  return responses;
}

std::vector<CellCurrentResponse> cell_current_response(
    const ArrayConfig& cfg, const std::vector<double>& temps_c,
    int stored_bit, int input_bit) {
  using namespace sfc::spice;
  const Cell1RConfig& cell = cfg.cell1r;

  Circuit ckt;
  const auto bl = ckt.node("bl");
  const auto sl = ckt.node("sl");
  const auto wl = ckt.node("wl");
  const auto out = ckt.node("out");
  ckt.add<VSource>("BL", bl, kGround, cfg.bias.v_bl);
  ckt.add<VSource>("SL", sl, kGround, cfg.bias.v_sl);
  const double wl_level =
      input_bit != 0 ? cfg.wl_read_level() : cfg.bias.v_wl_off;
  ckt.add<VSource>("WL", wl, kGround, wl_level);
  auto& fefet = ckt.add<fefet::FeFet>("XF", bl, wl, out, cell.fefet);
  ckt.add<Resistor>("RS", out, sl, cell.r_current_sense);
  fefet.ferroelectric().set_polarization(stored_bit != 0 ? 1.0 : -1.0);

  std::vector<CellCurrentResponse> responses;
  responses.reserve(temps_c.size());
  for (double t : temps_c) {
    Engine engine(ckt, t);
    const DcResult op = engine.dc_operating_point();
    CellCurrentResponse cr;
    cr.temperature_c = t;
    cr.converged = op.converged;
    if (op.converged) {
      cr.v_out = op.voltage("out");
      cr.i_drain = (cr.v_out - cfg.bias.v_sl) / cell.r_current_sense;
    }
    responses.push_back(cr);
  }
  return responses;
}

CellFluctuation cell_fluctuation(const ArrayConfig& cfg,
                                 const std::vector<double>& temps_c) {
  CellFluctuation f;
  const auto keep = [&f](const auto& r, double current) {
    if (!r.converged) return;
    f.temps_c.push_back(r.temperature_c);
    f.v_out.push_back(r.v_out);
    f.current.push_back(current);
  };
  if (cfg.kind == CellKind::k2T1FeFet) {
    for (const auto& r : cell_temperature_response(cfg, temps_c)) {
      keep(r, r.i_avg);
    }
  } else {
    for (const auto& r : cell_current_response(cfg, temps_c)) {
      keep(r, r.i_drain);
    }
  }
  f.normalized = normalize_to_reference(f.temps_c, f.current, 27.0);
  f.max = max_normalized_fluctuation(f.temps_c, f.current, 27.0);
  return f;
}

LevelSweepResult mac_level_sweep(const ArrayConfig& cfg,
                                 const std::vector<double>& temps_c) {
  const int n = cfg.cells_per_row;
  CiMRow row(cfg);
  const std::vector<int> all(static_cast<std::size_t>(n), 1);

  LevelSweepResult result;
  result.levels.resize(static_cast<std::size_t>(n) + 1);
  result.energy_per_op_by_mac.assign(static_cast<std::size_t>(n) + 1, 0.0);

  for (int k = 0; k <= n; ++k) {
    auto& level = result.levels[static_cast<std::size_t>(k)];
    level.mac = k;
    level.lo = 1e30;
    level.hi = -1e30;
    double energy_sum = 0.0;
    std::size_t energy_count = 0;

    // Pattern A: first k inputs high, all weights stored '1'
    // (input-driven zeros). Pattern B: all inputs high, first k weights
    // stored '1' (storage-driven zeros). Real workloads mix both, so the
    // level range must cover both.
    const std::vector<int> first_k = level_inputs(n, k);
    for (int pattern = 0; pattern < 2; ++pattern) {
      row.set_stored(pattern == 0 ? all : first_k);
      const std::vector<int>& inputs = pattern == 0 ? first_k : all;

      for (double t : temps_c) {
        MacResult r = row.evaluate(inputs, t);
        if (!r.converged) {
          result.all_converged = false;
          continue;
        }
        level.lo = std::min(level.lo, r.v_acc);
        level.hi = std::max(level.hi, r.v_acc);
        energy_sum += r.energy_per_op();
        ++energy_count;
      }
    }
    if (energy_count > 0) {
      result.energy_per_op_by_mac[static_cast<std::size_t>(k)] =
          energy_sum / static_cast<double>(energy_count);
    }
  }
  return result;
}

double tops_per_watt(double energy_per_op_joules) {
  if (energy_per_op_joules <= 0.0) return 0.0;
  return 1.0 / energy_per_op_joules / 1e12;
}

}  // namespace sfc::cim
