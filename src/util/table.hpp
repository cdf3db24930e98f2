// ASCII table renderer for the bench harnesses: every reproduced figure
// and table prints its rows in the same aligned style the paper uses.
#pragma once

#include <string>
#include <vector>

namespace sfc::util {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Render with column alignment and +---+ separators.
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double as a short string (`%.{precision}g`).
std::string fmt(double value, int precision = 5);

/// Format as a percentage with sign, e.g. "+12.4%".
std::string fmt_percent(double fraction, int decimals = 1);

}  // namespace sfc::util
