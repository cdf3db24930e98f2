#include "verify/golden.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "verify/experiments.hpp"

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

void GoldenRecord::claim(const std::string& label, bool holds) {
  Quantity& claims = quantities_["claims"];
  claims.values.push_back(holds ? 1.0 : 0.0);
  claims.labels.push_back(label);
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

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = {
      {"dc_op_point", dc_op_point},
      {"fig1_fefet_characteristics", fig1_fefet_characteristics},
      {"fig3_1fefet1r_temperature", fig3_1fefet1r_temperature},
      {"fig4_1fefet1r_array_overlap", fig4_1fefet1r_array_overlap},
      {"fig7_2t1fefet_cell", fig7_2t1fefet_cell},
      {"fig8_2t1fefet_array", fig8_2t1fefet_array},
      {"fig9_montecarlo_variation",
       [] { return fig9_montecarlo_variation(exec::ExecPolicy{0}); }},
      {"table2_comparison", table2_comparison},
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
