#include "lint/linter.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sfc::lint {

Linter::Linter() : enabled_(builtin_rules().size(), true) {
  validate_rule_table(builtin_rules());
}

std::size_t Linter::index_of(const std::string& rule_id) const {
  const auto& rules = builtin_rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rule_id == rules[i].id) return i;
  }
  std::string valid;
  for (const Rule& r : rules) {
    if (!valid.empty()) valid += ", ";
    valid += r.id;
  }
  throw std::runtime_error("lint: unknown rule '" + rule_id +
                           "' (valid rules: " + valid + ")");
}

void Linter::disable(const std::string& rule_id) {
  enabled_[index_of(rule_id)] = false;
}

void Linter::enable(const std::string& rule_id) {
  enabled_[index_of(rule_id)] = true;
}

LintReport Linter::run(const spice::Circuit& circuit,
                       const spice::NetlistDeck* deck) const {
  AnalysisManager analyses(circuit, deck);
  LintContext ctx{circuit, deck, analyses};
  LintReport report;
  const auto& rules = builtin_rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (enabled_[i]) rules[i].run(ctx, report);
  }
  report.sort();
  return report;
}

LintResult lint_source(const std::string& text, const Linter& linter) {
  LintResult result;
  spice::Circuit circuit;
  try {
    result.deck = spice::parse_netlist(text, circuit);
    result.parsed = true;
  } catch (const spice::NetlistError& e) {
    Diagnostic d;
    d.rule = e.rule();
    d.severity = Severity::kError;
    d.line = e.line();
    d.message = e.what();
    result.report.add(std::move(d));
    return result;
  } catch (const std::exception& e) {
    Diagnostic d;
    d.rule = "parse-error";
    d.severity = Severity::kError;
    d.message = e.what();
    result.report.add(std::move(d));
    return result;
  }
  result.report = linter.run(circuit, &result.deck);
  return result;
}

LintResult lint_file(const std::string& path, const Linter& linter) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("lint: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return lint_source(buffer.str(), linter);
}

}  // namespace sfc::lint
