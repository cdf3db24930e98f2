#include "verify/golden.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "cim/array.hpp"
#include "cim/energy.hpp"
#include "cim/metrics.hpp"
#include "cim/montecarlo.hpp"
#include "spice/engine.hpp"
#include "util/stats.hpp"

namespace sfc::verify {

void GoldenRecord::set(const std::string& quantity,
                       std::vector<double> values,
                       std::vector<std::string> labels, Tolerance tol) {
  if (!labels.empty() && labels.size() != values.size()) {
    throw std::runtime_error("GoldenRecord: label/value count mismatch for '" +
                             quantity + "'");
  }
  quantities_[quantity] = Quantity{std::move(values), std::move(labels), tol};
}

void GoldenRecord::set_scalar(const std::string& quantity, double value,
                              Tolerance tol) {
  set(quantity, {value}, {}, tol);
}

const Quantity& GoldenRecord::at(const std::string& quantity) const {
  const auto it = quantities_.find(quantity);
  if (it == quantities_.end()) {
    throw std::runtime_error("GoldenRecord '" + name_ + "': no quantity '" +
                             quantity + "'");
  }
  return it->second;
}

Json GoldenRecord::to_json() const {
  Json root = Json::object();
  root.set("schema_version", kSchemaVersion);
  root.set("name", name_);
  root.set("description", description_);
  Json quantities = Json::object();
  for (const auto& [qname, q] : quantities_) {
    Json jq = Json::object();
    jq.set("values", Json::array_of(q.values));
    if (!q.labels.empty()) jq.set("labels", Json::array_of(q.labels));
    Json tol = Json::object();
    tol.set("abs", q.tol.abs);
    tol.set("rel", q.tol.rel);
    jq.set("tolerance", std::move(tol));
    quantities.set(qname, std::move(jq));
  }
  root.set("quantities", std::move(quantities));
  return root;
}

GoldenRecord GoldenRecord::from_json(const Json& j) {
  const double version = j.number_at("schema_version");
  if (version != kSchemaVersion) {
    throw std::runtime_error("golden schema version " +
                             Json::format_number(version) + " unsupported");
  }
  GoldenRecord r(j.string_at("name"), j.string_at("description"));
  for (const auto& [qname, jq] : j.get("quantities").as_object()) {
    Quantity q;
    q.values = jq.numbers_at("values");
    if (jq.has("labels")) q.labels = jq.strings_at("labels");
    const Json& tol = jq.get("tolerance");
    q.tol.abs = tol.number_at("abs");
    q.tol.rel = tol.number_at("rel");
    r.quantities_[qname] = std::move(q);
  }
  return r;
}

GoldenCompare compare_to_golden(const GoldenRecord& golden,
                                const GoldenRecord& actual) {
  GoldenCompare out;
  for (const auto& [qname, expected] : golden.quantities()) {
    const auto it = actual.quantities().find(qname);
    if (it == actual.quantities().end()) {
      out.missing_quantities.push_back(qname);
      out.pass = false;
      continue;
    }
    const Quantity& got = it->second;
    if (got.values.size() != expected.values.size()) {
      out.size_mismatches.push_back(qname + ": expected " +
                                    std::to_string(expected.values.size()) +
                                    " values, got " +
                                    std::to_string(got.values.size()));
      out.pass = false;
      continue;
    }
    for (std::size_t i = 0; i < expected.values.size(); ++i) {
      ++out.values_compared;
      const double e = expected.values[i];
      const double a = got.values[i];
      const double allowed =
          expected.tol.abs + expected.tol.rel * std::fabs(e);
      const bool ok =
          std::isfinite(a) && std::isfinite(e) && std::fabs(a - e) <= allowed;
      if (ok) continue;
      out.pass = false;
      if (out.mismatches.size() < 16) {
        Mismatch m;
        m.quantity = qname;
        m.index = i;
        m.label = i < expected.labels.size() ? expected.labels[i] : "";
        m.expected = e;
        m.actual = a;
        m.allowed = allowed;
        out.mismatches.push_back(std::move(m));
      }
    }
  }
  for (const auto& [qname, q] : actual.quantities()) {
    (void)q;
    if (!golden.quantities().count(qname)) {
      out.extra_quantities.push_back(qname);
      out.pass = false;
    }
  }
  return out;
}

std::string GoldenCompare::summary() const {
  std::ostringstream ss;
  ss << (pass ? "PASS" : "FAIL") << " (" << values_compared
     << " values compared)";
  for (const auto& q : missing_quantities) ss << "\n  missing quantity: " << q;
  for (const auto& q : extra_quantities) ss << "\n  extra quantity: " << q;
  for (const auto& s : size_mismatches) ss << "\n  size mismatch: " << s;
  for (const auto& m : mismatches) {
    ss << "\n  " << m.quantity << "[" << m.index << "]";
    if (!m.label.empty()) ss << " (" << m.label << ")";
    ss << ": expected " << Json::format_number(m.expected) << ", got "
       << Json::format_number(m.actual) << " (allowed |diff| <= "
       << Json::format_number(m.allowed) << ")";
  }
  return ss.str();
}

GoldenRecord load_golden(const std::string& path) {
  return GoldenRecord::from_json(read_json_file(path));
}

void save_golden(const std::string& path, const GoldenRecord& record) {
  write_json_file(path, record.to_json());
}

// ---------------------------------------------------------------------------
// Canonical experiments
// ---------------------------------------------------------------------------
namespace {

// Tolerance policy. The simulations are deterministic on one build, so
// the bands only need to absorb cross-compiler/libm drift — they are
// deliberately much tighter than any physically meaningful change
// (perturbing a single solver or design constant by >= 1 % trips them;
// see test_verify_golden.cpp).
constexpr Tolerance kVoltageTol{5e-5, 1e-3};   // 50 uV + 0.1 %
constexpr Tolerance kNmrTol{5e-3, 2e-2};       // dimensionless ratios
constexpr Tolerance kEnergyTol{1e-17, 1e-2};   // 0.01 fJ + 1 %
constexpr Tolerance kTopsTol{10.0, 1e-2};
constexpr Tolerance kErrorPctTol{5e-2, 5e-2};  // Monte Carlo error [%FS]

/// Paper temperature anchors used by the golden sweep (0 / 25 / 85 degC).
const std::vector<double>& golden_temps() {
  static const std::vector<double> t = {0.0, 25.0, 85.0};
  return t;
}

std::string mac_label(double temp_c, int mac) {
  std::ostringstream ss;
  ss << "T" << temp_c << "_mac" << mac;
  return ss.str();
}

/// v_acc of the Fig. 8 row (all weights stored '1') for every MAC value at
/// one temperature: the same ladder as the behavioural calibration.
std::vector<double> mac_levels_at(sfc::cim::CiMRow& row, double temp_c) {
  std::vector<double> levels;
  for (const sfc::cim::MacResult& r : row.evaluate_levels(temp_c)) {
    if (!r.converged) {
      throw std::runtime_error("golden MAC transient failed to converge");
    }
    levels.push_back(r.v_acc);
  }
  return levels;
}

GoldenRecord build_dc_op_point() {
  GoldenRecord rec("dc_op_point",
                   "DC operating point of a 1-cell 2T-1FeFET row (Fig. 7 "
                   "cell) at 27 degC: every node voltage");
  sfc::cim::ArrayConfig cfg = sfc::cim::ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 1;
  sfc::cim::CiMRow row(cfg);
  row.set_stored({1});
  sfc::spice::Engine engine(row.circuit(), 27.0);
  const sfc::spice::DcResult op = engine.dc_operating_point(cfg.newton);
  if (!op.converged) {
    throw std::runtime_error("golden DC op point failed to converge");
  }
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

GoldenRecord build_fig8_mac_levels() {
  GoldenRecord rec("fig8_mac_levels",
                   "Fig. 8: accumulated output voltage of the 8-cell "
                   "2T-1FeFET row for MAC = 0..8 at 27 degC");
  sfc::cim::CiMRow row(sfc::cim::ArrayConfig::proposed_2t1fefet());
  row.set_stored(std::vector<int>(static_cast<std::size_t>(row.cells()), 1));
  std::vector<std::string> labels;
  for (int k = 0; k <= row.cells(); ++k) {
    labels.push_back("mac" + std::to_string(k));
  }
  rec.set("v_acc", mac_levels_at(row, 27.0), std::move(labels), kVoltageTol);
  return rec;
}

GoldenRecord build_temperature_sweep() {
  GoldenRecord rec("temperature_sweep",
                   "MAC output voltages of the 8-cell 2T-1FeFET row at "
                   "0/25/85 degC (the paper's resilience span), and the "
                   "noise margin rates (Eq. 2) and NMR_min (Eq. 3) of their "
                   "level ranges");
  sfc::cim::CiMRow row(sfc::cim::ArrayConfig::proposed_2t1fefet());
  const int n = row.cells();
  row.set_stored(std::vector<int>(static_cast<std::size_t>(n), 1));
  std::vector<sfc::cim::LevelRange> ranges(static_cast<std::size_t>(n) + 1);
  for (int k = 0; k <= n; ++k) {
    ranges[static_cast<std::size_t>(k)] = {k, 1e300, -1e300};
  }
  std::vector<double> flat;
  std::vector<std::string> labels;
  for (double t : golden_temps()) {
    const std::vector<double> levels = mac_levels_at(row, t);
    for (int k = 0; k <= n; ++k) {
      const double v = levels[static_cast<std::size_t>(k)];
      auto& r = ranges[static_cast<std::size_t>(k)];
      r.lo = std::min(r.lo, v);
      r.hi = std::max(r.hi, v);
      flat.push_back(v);
      labels.push_back(mac_label(t, k));
    }
  }
  rec.set("v_acc", std::move(flat), std::move(labels), kVoltageTol);

  const std::vector<double> nmr = sfc::cim::noise_margin_rates(ranges);
  const sfc::cim::NmrSummary sum = sfc::cim::summarize_nmr(ranges);
  std::vector<std::string> nmr_labels;
  for (std::size_t i = 0; i < nmr.size(); ++i) {
    nmr_labels.push_back("nmr_" + std::to_string(i));
  }
  rec.set("nmr", nmr, std::move(nmr_labels), kNmrTol);
  rec.set_scalar("nmr_min", sum.nmr_min, kNmrTol);
  rec.set_scalar("argmin_mac", sum.argmin_mac, Tolerance{0.0, 0.0});
  rec.set_scalar("separable", sum.separable ? 1.0 : 0.0, Tolerance{0.0, 0.0});
  return rec;
}

GoldenRecord build_energy_per_mac() {
  GoldenRecord rec("energy_per_mac",
                   "Energy per operation and TOPS/W of the 8-cell row at "
                   "27 degC (paper: 3.14 fJ / 2866 TOPS/W scale)");
  const sfc::cim::EnergySummary e = sfc::cim::measure_energy(
      sfc::cim::ArrayConfig::proposed_2t1fefet(), 27.0);
  std::vector<std::string> labels;
  for (std::size_t k = 0; k < e.energy_per_op_by_mac.size(); ++k) {
    labels.push_back("mac" + std::to_string(k));
  }
  rec.set("energy_per_op_by_mac", e.energy_per_op_by_mac, std::move(labels),
          kEnergyTol);
  rec.set_scalar("mean_energy_per_op", e.mean_energy_per_op, kEnergyTol);
  rec.set_scalar("tops_per_watt", e.tops_per_watt, kTopsTol);
  return rec;
}

GoldenRecord build_montecarlo_quantiles() {
  GoldenRecord rec("montecarlo_quantiles",
                   "Reduced Fig. 9 Monte Carlo (6 runs x MAC {0,4,8}, "
                   "sigma_VT = 54 mV): output-error quantiles");
  sfc::cim::MonteCarloConfig mc;
  mc.runs = 6;
  mc.sigma_vt_fefet = 0.054;
  mc.mac_values = {0, 4, 8};
  const sfc::cim::MonteCarloResult r = sfc::cim::run_montecarlo(
      sfc::cim::ArrayConfig::proposed_2t1fefet(), mc);
  if (!r.all_converged) {
    throw std::runtime_error("golden Monte Carlo run failed to converge");
  }
  const std::vector<double> errors = r.errors();
  rec.set("error_percent_quantiles",
          {sfc::util::percentile(errors, 10.0),
           sfc::util::percentile(errors, 50.0),
           sfc::util::percentile(errors, 90.0)},
          {"p10", "p50", "p90"}, kErrorPctTol);
  rec.set_scalar("max_error_percent", r.max_error_percent, kErrorPctTol);
  rec.set_scalar("mean_error_percent", r.mean_error_percent, kErrorPctTol);
  rec.set_scalar("max_error_levels", r.max_error_levels,
                 Tolerance{1e-3, 5e-2});
  return rec;
}

}  // namespace

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = {
      {"dc_op_point", build_dc_op_point},
      {"fig8_mac_levels", build_fig8_mac_levels},
      {"temperature_sweep", build_temperature_sweep},
      {"energy_per_mac", build_energy_per_mac},
      {"montecarlo_quantiles", build_montecarlo_quantiles},
  };
  return cases;
}

std::string default_golden_dir() {
#ifdef SFC_GOLDEN_DIR
  return SFC_GOLDEN_DIR;
#else
  return "tests/goldens";
#endif
}

GoldenCompare run_golden_case(const GoldenCase& c, const std::string& dir) {
  const GoldenRecord golden = load_golden(dir + "/" + c.file());
  return compare_to_golden(golden, c.build());
}

}  // namespace sfc::verify
