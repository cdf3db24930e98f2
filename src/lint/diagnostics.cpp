#include "lint/diagnostics.hpp"

#include <algorithm>
#include <tuple>

namespace sfc::lint {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

std::size_t LintReport::count(Severity s) const {
  return static_cast<std::size_t>(std::count_if(
      diagnostics_.begin(), diagnostics_.end(),
      [s](const Diagnostic& d) { return d.severity == s; }));
}

std::optional<Severity> LintReport::max_severity() const {
  std::optional<Severity> top;
  for (const Diagnostic& d : diagnostics_) {
    if (!top || static_cast<int>(d.severity) > static_cast<int>(*top)) {
      top = d.severity;
    }
  }
  return top;
}

int LintReport::exit_code() const {
  const auto top = max_severity();
  return top ? static_cast<int>(*top) : 0;
}

void LintReport::sort() {
  std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::tie(a.line, a.rule, a.object) <
                            std::tie(b.line, b.rule, b.object);
                   });
}

std::string LintReport::to_text(const std::string& source_name) const {
  std::string out;
  const std::string prefix = source_name.empty() ? "netlist" : source_name;
  for (const Diagnostic& d : diagnostics_) {
    out += prefix;
    if (d.line > 0) out += ":" + std::to_string(d.line);
    out += ": ";
    out += severity_name(d.severity);
    out += ": [" + d.rule + "] " + d.message;
    if (!d.hint.empty()) out += " (hint: " + d.hint + ")";
    out += "\n";
  }
  out += prefix + ": " + std::to_string(count(Severity::kError)) +
         " error(s), " + std::to_string(count(Severity::kWarning)) +
         " warning(s), " + std::to_string(count(Severity::kNote)) +
         " note(s)\n";
  return out;
}

verify::Json LintReport::to_json(const std::string& source_name) const {
  verify::Json counts = verify::Json::object();
  counts.set("error", static_cast<double>(count(Severity::kError)));
  counts.set("warning", static_cast<double>(count(Severity::kWarning)));
  counts.set("note", static_cast<double>(count(Severity::kNote)));

  verify::JsonArray items;
  items.reserve(diagnostics_.size());
  for (const Diagnostic& d : diagnostics_) {
    verify::Json item = verify::Json::object();
    item.set("rule", d.rule);
    item.set("severity", severity_name(d.severity));
    item.set("line", static_cast<double>(d.line));
    item.set("object", d.object);
    item.set("message", d.message);
    item.set("hint", d.hint);
    items.push_back(std::move(item));
  }

  verify::Json out = verify::Json::object();
  out.set("schema_version", 1);
  out.set("source", source_name);
  out.set("counts", std::move(counts));
  out.set("diagnostics", verify::Json(std::move(items)));
  return out;
}

}  // namespace sfc::lint
