#include "verify/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cim/behavioral.hpp"
#include "cim/energy.hpp"
#include "cim/mac.hpp"
#include "cim/montecarlo.hpp"
#include "cim/reference_designs.hpp"
#include "data/synth_cifar.hpp"
#include "fefet/fefet.hpp"
#include "nn/cim_engine.hpp"
#include "nn/vgg.hpp"
#include "spice/engine.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace sfc::verify {
namespace {

using namespace sfc::cim;

// Tolerance policy. The simulations are deterministic on one build, so
// the bands only need to absorb cross-compiler/libm drift — they are
// deliberately much tighter than any physically meaningful change
// (perturbing a single solver or design constant by >= 1 % trips them;
// see test_verify_golden.cpp).
constexpr Tolerance kVoltageTol{5e-5, 1e-3};       // 50 uV + 0.1 %
constexpr Tolerance kNmrTol{5e-3, 2e-2};           // noise margin rates
constexpr Tolerance kEnergyTol{1e-17, 1e-2};       // 0.01 fJ + 1 %
constexpr Tolerance kEnergyRatioTol{0.0, 1e-2};    // energy over energy
constexpr Tolerance kTopsTol{10.0, 1e-2};
constexpr Tolerance kErrorPctTol{5e-2, 5e-2};      // Monte Carlo [%FS]
constexpr Tolerance kErrorLevelsTol{1e-3, 5e-2};   // [level spacings]
constexpr Tolerance kRelTol{0.0, 1e-3};            // currents and ratios
constexpr Tolerance kExact{0.0, 0.0};              // counts

std::string temp_label(double temp_c) {
  std::ostringstream ss;
  ss << "T" << temp_c;
  return ss.str();
}

std::vector<std::string> temp_labels(const std::vector<double>& temps_c) {
  std::vector<std::string> labels;
  for (double t : temps_c) labels.push_back(temp_label(t));
  return labels;
}

std::vector<std::string> indexed_labels(const std::string& stem,
                                        std::size_t count) {
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < count; ++i) {
    labels.push_back(stem + std::to_string(i));
  }
  return labels;
}

/// The Figs. 3 and 7 grid: 0..85 degC in 5 degC steps plus the 27 degC
/// reference point.
std::vector<double> cell_temps() {
  std::vector<double> temps;
  for (int t = 0; t <= 85; t += 5) {
    temps.push_back(t);
    if (t == 25) temps.push_back(27.0);
  }
  return temps;
}

/// Each level's range as the `v_lo` / `v_hi` columns.
void set_ranges(GoldenRecord& rec, const std::vector<LevelRange>& levels) {
  std::vector<double> lo, hi;
  for (const LevelRange& level : levels) {
    lo.push_back(level.lo);
    hi.push_back(level.hi);
  }
  const std::vector<std::string> labels = indexed_labels("mac", levels.size());
  rec.set("v_lo", std::move(lo), labels, kVoltageTol);
  rec.set("v_hi", std::move(hi), labels, kVoltageTol);
}

/// The ranges' noise margin rates (Eq. 2) as `nmr<suffix>`, and NMR_min
/// (Eq. 3) with the MAC it sits at as scalars.
NmrSummary set_nmr(GoldenRecord& rec, const std::vector<LevelRange>& levels,
                   const std::string& suffix) {
  const std::vector<double> nmr = noise_margin_rates(levels);
  rec.set("nmr" + suffix, nmr, indexed_labels("nmr_", nmr.size()), kNmrTol);
  const NmrSummary summary = summarize_nmr(levels);
  rec.set_scalar("nmr_min" + suffix, summary.nmr_min, kNmrTol);
  rec.set_scalar("argmin_mac" + suffix, summary.argmin_mac, kExact);
  return summary;
}

/// Row MACs of one 8-bit VGG(1/8 width) inference on the CiM fabric. The
/// count depends only on the network shape and the wordlength, so one
/// forward of an untrained, quantized net gives the count accuracy_vgg_cim
/// gets from its trained net.
std::uint64_t vgg_row_ops_per_inference() {
  const nn::Sequential net = nn::build_vgg(nn::VggConfig::reduced(0.125));
  data::SynthCifarConfig dcfg;
  dcfg.train_per_class = 1;
  const data::Dataset images = data::make_synth_cifar_train(dcfg);
  const nn::QuantizedNetwork qnet = nn::QuantizedNetwork::from_model(
      net, images, static_cast<int>(images.size()));
  const BehavioralArrayModel model =
      BehavioralArrayModel::calibrate(ArrayConfig::proposed_2t1fefet(), {27.0});
  nn::CimDotEngine engine(model, nn::CimDotEngine::Options{});
  qnet.forward(images.images[0], engine);
  return engine.row_ops();
}

/// Formats a table or scalar cell: whole numbers in full, others to five
/// significant digits.
std::string format_cell(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return util::fmt(v, 16);
  }
  return util::fmt(v, 5);
}

}  // namespace

GoldenRecord dc_op_point() {
  GoldenRecord rec("dc_op_point",
                   "DC operating point of a 1-cell 2T-1FeFET row (Fig. 7 "
                   "cell) at 27 degC: every node voltage");
  ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 1;
  CiMRow row(cfg);
  row.set_stored({1});
  spice::Engine engine(row.circuit(), 27.0);
  const spice::DcResult op = engine.dc_operating_point(cfg.newton);
  if (!op.converged) {
    throw std::runtime_error("dc_op_point: DC solve did not converge");
  }
  // DcResult::voltages is unordered; sort so the record is stable.
  std::vector<std::pair<std::string, double>> nodes(op.voltages.begin(),
                                                    op.voltages.end());
  std::sort(nodes.begin(), nodes.end());
  std::vector<double> values;
  std::vector<std::string> labels;
  for (const auto& [name, v] : nodes) {
    labels.push_back(name);
    values.push_back(v);
  }
  rec.set("node_voltages", std::move(values), std::move(labels), kVoltageTol);
  return rec;
}

GoldenRecord fig1_fefet_characteristics() {
  GoldenRecord rec(
      "fig1_fefet_characteristics",
      "Fig. 1: FeFET I_D-V_G in the low-VTH ('1') and high-VTH ('0') "
      "states at 0/27/85 degC, drain at BL (1.2 V), source at SL (0.2 V): "
      "the drain current at the 0.35 V and 1.3 V reads, the effective VTH, "
      "each state's 0.35 V current at 85 over 0 degC, and the curves "
      "id_<state>_<T> over vg (0 to 1.8 V in 20 mV steps)");
  const cim::ReadBias bias;
  spice::Circuit scratch;
  fefet::FeFet device("X", scratch.node("d"), scratch.node("g"),
                      scratch.node("s"), fefet::FeFetParams::reference(10.0));
  std::vector<double> vg;
  for (int i = 0; i <= 90; ++i) vg.push_back(0.02 * i);

  std::vector<std::string> labels;
  std::vector<double> i_read, i_sat, vth;
  bool low_vth_subthreshold = true;
  for (const bool stored_one : {true, false}) {
    device.ferroelectric().set_polarization(stored_one ? 1.0 : -1.0);
    for (double t : {0.0, 27.0, 85.0}) {
      labels.push_back((stored_one ? "low_vth_" : "high_vth_") +
                       temp_label(t));
      i_read.push_back(device.drain_current(0.35, bias.v_bl, bias.v_sl, t));
      i_sat.push_back(device.drain_current(1.30, bias.v_bl, bias.v_sl, t));
      vth.push_back(device.effective_vth(t));
      if (stored_one && 0.35 - bias.v_sl >= vth.back()) {
        low_vth_subthreshold = false;
      }
      std::vector<double> curve;
      for (double v : vg) {
        curve.push_back(device.drain_current(v, bias.v_bl, bias.v_sl, t));
      }
      rec.set("id_" + labels.back(), std::move(curve), {}, kRelTol);
    }
  }
  const double low_drift = i_read[2] / i_read[0];
  const double high_drift = i_read[5] / i_read[3];
  rec.set("vg", std::move(vg), {}, kVoltageTol);
  rec.set("id_at_0v35", std::move(i_read), labels, kRelTol);
  rec.set("id_at_1v3", std::move(i_sat), labels, kRelTol);
  rec.set("vth_eff", std::move(vth), labels, kVoltageTol);
  rec.set_scalar("low_vth_drift_85_over_0", low_drift, kRelTol);
  rec.set_scalar("high_vth_drift_85_over_0", high_drift, kRelTol);
  rec.claim("the 0.35 V read is subthreshold in the low-VTH state at "
            "0-85 degC",
            low_vth_subthreshold);
  rec.claim("temperature moves the high-VTH read current more than the "
            "low-VTH one",
            high_drift > low_drift);
  return rec;
}

GoldenRecord fig3_1fefet1r_temperature() {
  GoldenRecord rec(
      "fig3_1fefet1r_temperature",
      "Fig. 3: current-mode output current of the 1FeFET-1R cell (stored "
      "'1', input '1') from 0 to 85 degC, normalized to 27 degC, read at "
      "1.3 V (saturation) and 0.35 V (subthreshold), and the max "
      "fluctuation |I/I(27C) - 1| of each");
  const std::vector<double> temps = cell_temps();
  const CellFluctuation sat =
      cell_fluctuation(ArrayConfig::baseline_1r_saturation(), temps);
  const CellFluctuation sub =
      cell_fluctuation(ArrayConfig::baseline_1r_subthreshold(), temps);
  const std::vector<std::string> labels = temp_labels(temps);
  rec.set("i_saturation", sat.current, labels, kRelTol);
  rec.set("norm_saturation", sat.normalized, labels, kRelTol);
  rec.set("i_subthreshold", sub.current, labels, kRelTol);
  rec.set("norm_subthreshold", sub.normalized, labels, kRelTol);
  rec.set_scalar("max_fluctuation_saturation", sat.max, kRelTol);
  rec.set_scalar("max_fluctuation_subthreshold", sub.max, kRelTol);
  rec.claim("the subthreshold read fluctuates more than the saturation "
            "read (paper 52.1 % vs 20.6 %)",
            sub.max > sat.max);
  return rec;
}

GoldenRecord fig4_1fefet1r_array_overlap() {
  GoldenRecord rec(
      "fig4_1fefet1r_array_overlap",
      "Fig. 4: output-voltage range of each MAC level of the 8-cell "
      "subthreshold 1FeFET-1R row over 0-85 degC and both zero patterns, "
      "their noise margin rates (Eq. 2) and NMR_min (Eq. 3)");
  const LevelSweepResult sweep = mac_level_sweep(
      ArrayConfig::baseline_1r_subthreshold(), default_temperature_grid());
  set_ranges(rec, sweep.levels());
  set_nmr(rec, sweep.levels(), "");
  const std::vector<double>& nmr = rec.at("nmr").values;
  const auto overlapping =
      std::count_if(nmr.begin(), nmr.end(), [](double v) { return v < 0.0; });
  rec.set_scalar("overlapping_pairs", static_cast<double>(overlapping),
                 kExact);
  rec.claim("adjacent MAC levels overlap (paper: overlapping outputs)",
            overlapping > 0);
  return rec;
}

GoldenRecord fig7_2t1fefet_cell() {
  GoldenRecord rec(
      "fig7_2t1fefet_cell",
      "Fig. 7: the 2T-1FeFET cell (stored '1', input '1') from 0 to 85 "
      "degC: V_O and the average C0 charging current over the 5 ns cell "
      "phase, normalized to 27 degC; its max fluctuation over 0-85 and "
      "20-85 degC; and the 1FeFET-1R cell's over 0/27/85 degC");
  const std::vector<double> temps = cell_temps();
  const CellFluctuation f =
      cell_fluctuation(ArrayConfig::proposed_2t1fefet(), temps);
  // cell_temps() ascends, so its points at or above 20 degC are a suffix.
  const auto warm_from = static_cast<std::size_t>(
      std::lower_bound(temps.begin(), temps.end(), 20.0) - temps.begin());
  const double warm =
      max_normalized_fluctuation(std::span(temps).subspan(warm_from),
                                 std::span(f.current).subspan(warm_from), 27.0);
  const std::vector<double> anchors = {0.0, 27.0, 85.0};
  const double f_sat =
      cell_fluctuation(ArrayConfig::baseline_1r_saturation(), anchors).max;
  const double f_sub =
      cell_fluctuation(ArrayConfig::baseline_1r_subthreshold(), anchors).max;
  const std::vector<std::string> labels = temp_labels(temps);
  rec.set("v_out", f.v_out, labels, kVoltageTol);
  rec.set("i_avg", f.current, labels, kRelTol);
  rec.set("normalized", f.normalized, labels, kRelTol);
  rec.set_scalar("max_fluctuation", f.max, kRelTol);
  rec.set_scalar("max_fluctuation_warm", warm, kRelTol);
  rec.set_scalar("max_fluctuation_1r_saturation", f_sat, kRelTol);
  rec.set_scalar("max_fluctuation_1r_subthreshold", f_sub, kRelTol);
  rec.claim("the 2T-1FeFET cell fluctuates less than the subthreshold "
            "1FeFET-1R cell (paper 26.6 % vs 52.1 %)",
            f.max < f_sub);
  rec.claim("the 2T-1FeFET cell fluctuates within 1.5x of the saturated "
            "1FeFET-1R cell (paper 26.6 % vs 20.6 %)",
            f.max < 1.5 * f_sat);
  return rec;
}

GoldenRecord fig8_2t1fefet_array() {
  GoldenRecord rec(
      "fig8_2t1fefet_array",
      "Fig. 8: (a) output-voltage range of each MAC level of the 8-cell "
      "2T-1FeFET row over 0-85 degC and both zero patterns, their noise "
      "margin rates (Eq. 2) and NMR_min (Eq. 3), also over 20-85 degC "
      "(_warm), and the MAC ladders (input-driven zeros) at 0, 27 and 85 "
      "degC; (b) the energy per op of the 27 degC ladder, its mean and "
      "TOPS/W (9 ops per row MAC)");
  const LevelSweepResult sweep = mac_level_sweep(
      ArrayConfig::proposed_2t1fefet(), default_temperature_grid());
  set_ranges(rec, sweep.levels());
  const NmrSummary all = set_nmr(rec, sweep.levels(), "");
  const NmrSummary warm = set_nmr(rec, sweep.levels(20.0), "_warm");

  const std::vector<std::string> macs =
      indexed_labels("mac", static_cast<std::size_t>(sweep.cells) + 1);
  std::vector<double> energy;
  for (double t : {0.0, 27.0, 85.0}) {
    std::vector<double> ladder;
    for (int k = 0; k <= sweep.cells; ++k) {
      const auto& cycle = sweep.at(ZeroPattern::kInputDriven, t, k);
      ladder.push_back(cycle.v_acc);
      if (t == 27.0) energy.push_back(cycle.energy_per_op);
    }
    rec.set("v_acc_" + temp_label(t), std::move(ladder), macs, kVoltageTol);
  }
  const EnergySummary e = summarize_energy(std::move(energy));
  rec.set("energy_per_op", e.energy_per_op_by_mac, macs, kEnergyTol);
  rec.set_scalar("mean_energy_per_op", e.mean_energy_per_op, kEnergyTol);
  rec.set_scalar("tops_per_watt", e.tops_per_watt, kTopsTol);

  rec.claim("the MAC levels are separable over 0-85 degC (paper NMR_min "
            "0.22)",
            all.separable);
  rec.claim("NMR_min improves over 20-85 degC (paper 2.3)",
            warm.nmr_min > all.nmr_min);
  rec.claim("energy per op grows with the MAC value",
            e.energy_per_op_by_mac.back() > e.energy_per_op_by_mac[1]);
  return rec;
}

GoldenRecord fig9_montecarlo_variation(const exec::ExecPolicy& exec) {
  GoldenRecord rec(
      "fig9_montecarlo_variation",
      "Fig. 9: 100 Monte Carlo runs of the 8-cell 2T-1FeFET row at "
      "27 degC, sigma_VT = 54 mV on every FeFET: each run's v_acc and "
      "output error (% of full scale) at MAC 0..8 in run order, the "
      "error histogram and statistics, and the worst errors of a 4-cell "
      "row under the same variation");
  MonteCarloConfig mc;
  mc.runs = 100;
  mc.sigma_vt_fefet = 0.054;
  mc.exec = exec;
  ArrayConfig cfg4 = ArrayConfig::proposed_2t1fefet();
  cfg4.cells_per_row = 4;
  const MonteCarloResult r8 =
      run_montecarlo(ArrayConfig::proposed_2t1fefet(), mc);
  const MonteCarloResult r4 = run_montecarlo(cfg4, mc);
  if (!r8.all_converged || !r4.all_converged) {
    throw std::runtime_error("fig9_montecarlo_variation: " +
                             std::to_string(r8.job.failed + r4.job.failed) +
                             " Monte Carlo run(s) did not converge");
  }
  std::vector<double> v_acc;
  for (const MonteCarloSample& s : r8.samples) v_acc.push_back(s.v_acc);
  const std::vector<double> errors = r8.errors();
  util::Histogram hist(0.0, 30.0, 15);
  hist.add_all(errors);
  std::vector<double> counts;
  std::vector<std::string> bins;
  for (std::size_t b = 0; b < 15; ++b) {
    counts.push_back(static_cast<double>(hist.count(b)));
    bins.push_back(util::fmt(hist.bin_low(b)) + "-" +
                   util::fmt(hist.bin_high(b)) + "%");
  }
  rec.set("v_acc", std::move(v_acc), {}, kVoltageTol);
  rec.set("error_percent", errors, {}, kErrorPctTol);
  rec.set("error_histogram", std::move(counts), std::move(bins), kExact);
  rec.set_scalar("max_error_percent", r8.max_error_percent, kErrorPctTol);
  rec.set_scalar("mean_error_percent", r8.mean_error_percent, kErrorPctTol);
  rec.set_scalar("p95_error_percent", util::percentile(errors, 95.0),
                 kErrorPctTol);
  rec.set_scalar("max_error_levels", r8.max_error_levels, kErrorLevelsTol);
  rec.set_scalar("max_error_percent_4cell", r4.max_error_percent,
                 kErrorPctTol);
  rec.set_scalar("max_error_levels_4cell", r4.max_error_levels,
                 kErrorLevelsTol);
  rec.claim("the max error is within 2x of the paper's ~25 %",
            r8.max_error_percent > 5.0 && r8.max_error_percent < 50.0);
  rec.claim("a 4-cell row errs less per level spacing (paper: below 10 % "
            "with 4 cells per row)",
            r4.max_error_levels <= r8.max_error_levels);
  return rec;
}

GoldenRecord table2_comparison() {
  GoldenRecord rec(
      "table2_comparison",
      "Table II, this work: energy per op and TOPS/W of the 8-cell "
      "2T-1FeFET row at 27 degC (mean over MAC 0..8), the row MACs of one "
      "8-bit VGG(1/8 width) forward and its energy at 9 ops per row MAC, "
      "and each cited design's energy per op over this work's");
  const EnergySummary energy =
      measure_energy(ArrayConfig::proposed_2t1fefet(), 27.0);
  const std::uint64_t row_ops = vgg_row_ops_per_inference();
  rec.set_scalar("mean_energy_per_op", energy.mean_energy_per_op, kEnergyTol);
  rec.set_scalar("tops_per_watt", energy.tops_per_watt, kTopsTol);
  rec.set_scalar("row_macs_per_inference", static_cast<double>(row_ops),
                 kExact);
  rec.set_scalar("energy_per_inference",
                 static_cast<double>(row_ops) * 9.0 *
                     energy.mean_energy_per_op,
                 kEnergyTol);
  std::vector<double> ratios;
  std::vector<std::string> designs;
  bool lowest = true;
  for (const DesignRow& row : reference_designs()) {
    if (row.energy_per_op_joules <= 0.0) continue;
    ratios.push_back(energy_ratio_vs(row, energy.mean_energy_per_op));
    designs.push_back(row.work + " " + row.device);
    lowest = lowest && row.energy_per_op_joules >= energy.mean_energy_per_op;
  }
  rec.set("energy_ratio", std::move(ratios), std::move(designs),
          kEnergyRatioTol);
  rec.claim("this work has the lowest energy per op of the designs that "
            "report one (paper: ReRAM 64.6x, MTJ 445.9x)",
            lowest);
  return rec;
}

int publish(const GoldenRecord& record) {
  std::printf("== %s ==\n%s\n\n", record.name().c_str(),
              record.description().c_str());
  // Labelled quantities that share their labels form one table.
  std::map<std::vector<std::string>, std::vector<std::string>> tables;
  util::Table scalars({"quantity", "value"});
  bool any_scalar = false;
  std::string series;
  for (const auto& [name, q] : record.quantities()) {
    if (name == "claims") continue;
    if (!q.labels.empty()) {
      tables[q.labels].push_back(name);
    } else if (q.values.size() == 1) {
      scalars.add_row({name, format_cell(q.values[0])});
      any_scalar = true;
    } else if (!q.values.empty()) {
      const auto [lo, hi] =
          std::minmax_element(q.values.begin(), q.values.end());
      series += name + ": " + std::to_string(q.values.size()) +
                " values in [" + format_cell(*lo) + ", " + format_cell(*hi) +
                "]\n";
    }
  }
  for (const auto& [labels, names] : tables) {
    std::vector<std::string> header = {""};
    header.insert(header.end(), names.begin(), names.end());
    util::Table table(header);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      std::vector<std::string> row = {labels[i]};
      for (const std::string& name : names) {
        row.push_back(format_cell(record.at(name).values[i]));
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
  }
  if (any_scalar) std::printf("%s\n", scalars.render().c_str());
  if (!series.empty()) std::printf("%s\n", series.c_str());

  const std::string path = record.name() + ".json";
  save_golden(path, record);
  std::printf("wrote %s\n", path.c_str());
  int failed = 0;
  const auto claims = record.quantities().find("claims");
  if (claims != record.quantities().end()) {
    std::printf("\nclaims:\n");
    const Quantity& q = claims->second;
    for (std::size_t i = 0; i < q.values.size(); ++i) {
      const bool holds = q.values[i] == 1.0;
      failed += holds ? 0 : 1;
      std::printf("  [%s] %s\n", holds ? "holds" : "FAILS",
                  q.labels[i].c_str());
    }
  }
  std::fflush(stdout);
  return failed > 0 ? 1 : 0;
}

}  // namespace sfc::verify
