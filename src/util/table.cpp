#include "util/table.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace sfc::util {

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  return buf;
}

std::string fmt_percent(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.*f%%", decimals, fraction * 100.0);
  return buf;
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  auto rule = [&] {
    std::string s = "+";
    for (std::size_t w : width) {
      s.append(w + 2, '-');
      s += '+';
    }
    s += '\n';
    return s;
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      s += ' ';
      s += cells[c];
      s.append(width[c] - cells[c].size() + 1, ' ');
      s += '|';
    }
    s += '\n';
    return s;
  };

  std::string out = rule();
  out += line(header_);
  out += rule();
  for (const auto& row : rows_) out += line(row);
  out += rule();
  return out;
}

}  // namespace sfc::util
