// Structured diagnostics for the netlist static analyzer (ERC/lint).
//
// A Diagnostic is one finding of one rule: a stable machine-readable rule
// id, a severity, the source line of the offending card (0 when the
// circuit was built through the API), the device or node it anchors to, a
// human message and an optional fix-it hint. A LintReport is the ordered
// list of findings of one run, serializable both to compiler-style text
// ("deck.cir:12: error: [floating-node] ...") and to canonical JSON via
// sfc_verify::Json (sorted keys, stable number formatting), so CI can
// diff reports byte-for-byte.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "verify/json.hpp"

namespace sfc::lint {

/// Numeric values double as CLI exit codes (0 = clean report).
enum class Severity { kNote = 1, kWarning = 2, kError = 3 };

const char* severity_name(Severity s);

struct Diagnostic {
  std::string rule;              ///< stable rule id, e.g. "floating-node"
  Severity severity = Severity::kError;
  std::size_t line = 0;          ///< 1-based netlist line; 0 = no source
  std::string object;            ///< device or node name the finding anchors to
  std::string message;
  std::string hint;              ///< optional fix-it suggestion ("" = none)
};

class LintReport {
 public:
  void add(Diagnostic d) { diagnostics_.push_back(std::move(d)); }

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool clean() const { return diagnostics_.empty(); }
  /// Findings of the given severity.
  std::size_t count(Severity s) const;

  /// Highest severity present; nullopt for a clean report.
  std::optional<Severity> max_severity() const;

  /// CLI exit code: 0 clean, else the numeric value of max_severity()
  /// (note 1, warning 2, error 3).
  int exit_code() const;

  /// Sort findings by (line, rule, object) for stable output regardless of
  /// rule execution order. Called by lint_circuit after the pipeline runs.
  void sort();

  /// Compiler-style text, one finding per line, plus a summary line.
  /// `source_name` prefixes each finding ("deck.cir:12: ...").
  std::string to_text(const std::string& source_name = "") const;

  /// Canonical JSON: {schema_version, source, counts{...}, diagnostics[]}.
  verify::Json to_json(const std::string& source_name = "") const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace sfc::lint
