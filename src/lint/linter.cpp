#include "lint/linter.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sfc::lint {

LintReport lint_circuit(const spice::Circuit& circuit,
                        const spice::NetlistDeck* deck) {
  const LintContext ctx{
      circuit, deck, NodeIncidence::build(circuit),
      ConductionComponents::build(circuit, !deck || !deck->tran.empty()),
      compute_operating_intervals(circuit, deck)};
  LintReport report;
  for (const Rule& rule : builtin_rules()) rule.run(ctx, report);
  report.sort();
  return report;
}

LintResult lint_source(const std::string& text) {
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
  result.report = lint_circuit(circuit, &result.deck);
  return result;
}

LintResult lint_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("lint: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return lint_source(buffer.str());
}

}  // namespace sfc::lint
