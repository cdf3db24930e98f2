// Pass-pipeline driver for the netlist static analyzer, plus the
// parse-and-lint entry points used by the sfc_lint CLI, the test suite and
// the fuzz cross-check. See DESIGN.md §10/§12 for the architecture and the
// full rule table.
#pragma once

#include <string>

#include "lint/diagnostics.hpp"
#include "lint/rules.hpp"

namespace sfc::lint {

/// Run every builtin rule over a finalized-or-not circuit, after building
/// the analyses they read once into a LintContext. `deck` unlocks the
/// directive rules (tran-step, temp-range, unused-model, dc-sweep-source),
/// tells the reachability rule whether capacitors conduct, and scopes the
/// interval analysis temperature range. Never solves, never mutates the
/// circuit. Findings come back sorted.
LintReport lint_circuit(const spice::Circuit& circuit,
                        const spice::NetlistDeck* deck = nullptr);

/// Parse + lint outcome. Parse failures are reported as diagnostics (rule
/// = spice::NetlistError::rule()), not exceptions, so the linter can be
/// pointed at arbitrary input — including fuzzer reproducers — without
/// crashing.
struct LintResult {
  LintReport report;
  spice::NetlistDeck deck;
  bool parsed = false;  ///< false when parsing aborted (deck is partial)
};

LintResult lint_source(const std::string& text);

/// Read `path` and lint it. Throws std::runtime_error on I/O failure only.
LintResult lint_file(const std::string& path);

}  // namespace sfc::lint
