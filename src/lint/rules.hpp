// Electrical-rule-check and semantic analysis passes over a parsed
// Circuit (+ optional NetlistDeck). Each rule is a pure static-analysis
// function: it inspects the circuit topology / device parameters / deck
// directives — or the shared analyses cached by the AnalysisManager
// (analysis.hpp) — and appends Diagnostic records. No solve is ever
// attempted. The Linter (linter.hpp) runs every rule in table order.
#pragma once

#include <cstddef>
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
  /// Shared analyses (incidence, conduction graphs, operating intervals),
  /// computed lazily and cached across the pass pipeline.
  AnalysisManager& analyses;
};

struct Rule {
  const char* id;
  Severity severity;  ///< severity the rule emits at
  const char* description;
  void (*run)(const LintContext&, LintReport&);
};

/// The built-in circuit/deck pass pipeline, in execution order.
const std::vector<Rule>& builtin_rules();

/// Throws std::invalid_argument when two rules share an id. Run by the
/// Linter constructor, so an edited rule table with a duplicate id fails
/// loudly instead of reporting two rules under one id.
void validate_rule_table(const std::vector<Rule>& rules);

/// Rules enforced during parse_netlist itself (surfaced by lint_source as
/// diagnostics via spice::NetlistError::rule()). Listed here so the CLI
/// rule table and the docs cover the full rule set.
struct ParseRuleInfo {
  const char* id;
  const char* description;
};
const std::vector<ParseRuleInfo>& parse_rules();

/// Semantic passes (passes_semantic.cpp), registered in builtin_rules()
/// and exposed for targeted tests.
namespace passes {
void subthreshold_window(const LintContext& ctx, LintReport& out);
void vth_temp_drift(const LintContext& ctx, LintReport& out);
void cim_array_shape(const LintContext& ctx, LintReport& out);
void adc_range(const LintContext& ctx, LintReport& out);
}  // namespace passes

}  // namespace sfc::lint
