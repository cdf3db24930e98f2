// Electrical-rule-check and semantic analysis passes over a parsed
// Circuit (+ optional NetlistDeck). Each rule is a pure static-analysis
// function: it inspects the circuit topology / device parameters / deck
// directives — or the shared analyses (analysis.hpp) that lint_circuit
// (linter.hpp) builds once into the LintContext — and appends Diagnostic
// records. No solve is ever attempted. lint_circuit runs every rule in
// table order.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/analysis.hpp"
#include "lint/diagnostics.hpp"
#include "spice/circuit.hpp"
#include "spice/netlist.hpp"

namespace sfc::lint {

struct LintContext {
  const spice::Circuit& circuit;
  /// Directives of the deck the circuit came from; nullptr when linting an
  /// API-built circuit (directive rules then no-op, and capacitors are
  /// treated as conductive for reachability — the caller may legitimately
  /// intend a transient).
  const spice::NetlistDeck* deck = nullptr;
  NodeIncidence incidence;
  /// Conduction components; capacitors conduct exactly when
  /// intervals.has_tran (a .tran, or no deck).
  ConductionComponents components;
  OperatingIntervals intervals;
};

struct Rule {
  const char* id;
  Severity severity;  ///< severity the rule emits at
  const char* description;
  void (*run)(const LintContext&, LintReport&);
};

/// "%.6g" text of a value, for diagnostic messages.
std::string fmt(double v);

/// The built-in circuit/deck pass pipeline, in execution order.
const std::vector<Rule>& builtin_rules();

/// Rules enforced during parse_netlist itself (surfaced by lint_source as
/// diagnostics via spice::NetlistError::rule()). Listed here so the CLI
/// rule table and the docs cover the full rule set.
struct ParseRuleInfo {
  const char* id;
  const char* description;
};
const std::vector<ParseRuleInfo>& parse_rules();

/// Semantic passes (passes_semantic.cpp), registered in builtin_rules().
namespace passes {
void subthreshold_window(const LintContext& ctx, LintReport& out);
void vth_temp_drift(const LintContext& ctx, LintReport& out);
void cim_array_shape(const LintContext& ctx, LintReport& out);
void adc_range(const LintContext& ctx, LintReport& out);
}  // namespace passes

}  // namespace sfc::lint
