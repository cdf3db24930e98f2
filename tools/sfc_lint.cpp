// sfc_lint — static netlist analyzer (ERC/lint + semantic passes) CLI.
//
//   sfc_lint file.cir [--json]   lint one deck; exit code = max severity
//                                (0 clean, 1 note, 2 warning, 3 error)
//   sfc_lint --list-rules        print the rule table and exit 0
//
// Text output is compiler-style ("file.cir:12: error: [rule] message"),
// --json emits the canonical report schema (sorted keys, stable numbers).
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "lint/linter.hpp"
#include "lint/rules.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <deck.cir> [--json]\n"
               "       %s --list-rules\n"
               "exit code: 0 clean, 1 note, 2 warning, 3 error, 4 usage/io\n",
               argv0, argv0);
  return 4;
}

void list_rules() {
  std::printf("circuit/deck rules (pass pipeline order):\n");
  for (const auto& rule : sfc::lint::builtin_rules()) {
    std::printf("  %-20s %-8s %s\n", rule.id,
                sfc::lint::severity_name(rule.severity), rule.description);
  }
  std::printf("parse-time rules (reported as error diagnostics):\n");
  for (const auto& rule : sfc::lint::parse_rules()) {
    std::printf("  %-20s %-8s %s\n", rule.id, "error", rule.description);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--list-rules") == 0) {
      list_rules();
      return 0;
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  try {
    const sfc::lint::LintResult result = sfc::lint::lint_file(path);
    if (json) {
      std::printf("%s\n", result.report.to_json(path).dump(2).c_str());
    } else {
      std::fputs(result.report.to_text(path).c_str(), stdout);
    }
    return result.report.exit_code();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfc_lint: %s\n", e.what());
    return 4;
  }
}
