#include "cim/mac.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace sfc::cim {

void throw_not_converged(const char* who, const ArrayConfig& cfg,
                         double temperature_c, int mac,
                         const std::string& pattern) {
  const char* kind = cfg.kind == CellKind::k2T1FeFet ? "2T-1FeFET"
                     : cfg.subthreshold_read     ? "subthreshold 1FeFET-1R"
                                                 : "saturation 1FeFET-1R";
  std::ostringstream ss;
  ss << who << ": " << kind << " cycle did not converge at " << temperature_c
     << " degC, MAC " << mac << ", " << pattern;
  throw std::runtime_error(ss.str());
}

namespace {

std::string cell_pattern(int stored_bit, int input_bit) {
  return "stored " + std::to_string(stored_bit) + ", input " +
         std::to_string(input_bit);
}

}  // namespace

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
    if (!r.converged) {
      throw_not_converged("cell_temperature_response", cfg, t,
                          stored_bit * input_bit,
                          cell_pattern(stored_bit, input_bit));
    }
    CellResponse cr;
    cr.temperature_c = t;
    cr.v_out = r.v_cell.at(0);
    // Average charging current of C0 over the cell phase, measured from
    // the known precharge level.
    cr.i_avg = c0 * (cr.v_out - v0) / one.timing.t_settle;
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
    const DcResult op = engine.dc_operating_point(cfg.newton);
    if (!op.converged) {
      throw_not_converged("cell_current_response", cfg, t,
                          stored_bit * input_bit,
                          cell_pattern(stored_bit, input_bit));
    }
    CellCurrentResponse cr;
    cr.temperature_c = t;
    cr.v_out = op.voltage("out");
    cr.i_drain = (cr.v_out - cfg.bias.v_sl) / cell.r_current_sense;
    responses.push_back(cr);
  }
  return responses;
}

CellFluctuation cell_fluctuation(const ArrayConfig& cfg,
                                 const std::vector<double>& temps_c) {
  CellFluctuation f;
  if (cfg.kind == CellKind::k2T1FeFet) {
    for (const auto& r : cell_temperature_response(cfg, temps_c)) {
      f.v_out.push_back(r.v_out);
      f.current.push_back(r.i_avg);
    }
  } else {
    for (const auto& r : cell_current_response(cfg, temps_c)) {
      f.v_out.push_back(r.v_out);
      f.current.push_back(r.i_drain);
    }
  }
  f.normalized = normalize_to_reference(temps_c, f.current, 27.0);
  f.max = max_normalized_fluctuation(temps_c, f.current, 27.0);
  return f;
}

std::size_t LevelSweepResult::index(ZeroPattern pattern, double temperature_c,
                                    int mac) const {
  const auto t = std::find(temps_c.begin(), temps_c.end(), temperature_c);
  if (t == temps_c.end() || mac < 0 || mac > cells) {
    throw std::out_of_range("LevelSweepResult: cycle not swept");
  }
  const auto p = static_cast<std::size_t>(pattern);
  const auto ti = static_cast<std::size_t>(t - temps_c.begin());
  return (p * temps_c.size() + ti) * static_cast<std::size_t>(cells + 1) +
         static_cast<std::size_t>(mac);
}

std::vector<LevelRange> LevelSweepResult::levels(double t_min_c) const {
  std::vector<LevelRange> out;
  for (int k = 0; k <= cells; ++k) {
    LevelRange level{k, std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()};
    for (const ZeroPattern p :
         {ZeroPattern::kInputDriven, ZeroPattern::kStorageDriven}) {
      for (double t : temps_c) {
        if (t < t_min_c) continue;
        const double v = at(p, t, k).v_acc;
        level.lo = std::min(level.lo, v);
        level.hi = std::max(level.hi, v);
      }
    }
    out.push_back(level);
  }
  return out;
}

LevelSweepResult mac_level_sweep(const ArrayConfig& cfg,
                                 const std::vector<double>& temps_c) {
  const int n = cfg.cells_per_row;
  CiMRow row(cfg);
  const std::vector<int> all(static_cast<std::size_t>(n), 1);

  LevelSweepResult result;
  result.cells = n;
  result.temps_c = temps_c;
  result.cycles.resize(2 * temps_c.size() * static_cast<std::size_t>(n + 1));
  for (int k = 0; k <= n; ++k) {
    const std::vector<int> first_k = level_inputs(n, k);
    for (const ZeroPattern p :
         {ZeroPattern::kInputDriven, ZeroPattern::kStorageDriven}) {
      const bool input_driven = p == ZeroPattern::kInputDriven;
      row.set_stored(input_driven ? all : first_k);
      const std::vector<int>& inputs = input_driven ? first_k : all;
      for (double t : temps_c) {
        const MacResult r = row.evaluate(inputs, t);
        if (!r.converged) {
          throw_not_converged("mac_level_sweep", cfg, t, k,
                              input_driven ? "input-driven zeros"
                                           : "storage-driven zeros");
        }
        result.cycles[result.index(p, t, k)] = {r.v_acc, r.energy_per_op()};
      }
    }
  }
  return result;
}

double tops_per_watt(double energy_per_op_joules) {
  if (energy_per_op_joules <= 0.0) return 0.0;
  return 1.0 / energy_per_op_joules / 1e12;
}

}  // namespace sfc::cim
