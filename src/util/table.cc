#include "util/table.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace gps {

std::string HumanCount(double value) {
  const bool negative = value < 0;
  double v = std::abs(value);
  const char* suffix = "";
  if (v >= 1e12) {
    v /= 1e12;
    suffix = "T";
  } else if (v >= 1e9) {
    v /= 1e9;
    suffix = "B";
  } else if (v >= 1e6) {
    v /= 1e6;
    suffix = "M";
  } else if (v >= 1e3) {
    v /= 1e3;
    suffix = "K";
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return std::string(negative ? "-" : "") + buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%s", v, suffix);
  return std::string(negative ? "-" : "") + buf;
}

std::string FormatDouble(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  if (s.empty() || s == "-0") s = "0";
  return s;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::AddRow(std::vector<std::string> row) {
  assert(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

void TextTable::AddSeparator() { rows_.emplace_back(); }

std::string TextTable::ToString() const {
  std::vector<size_t> width(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  auto render_rule = [&]() {
    std::string line;
    for (size_t c = 0; c < width.size(); ++c) {
      line += std::string(width[c] + 2, '-');
      if (c + 1 < width.size()) line += '+';
    }
    line += '\n';
    return line;
  };
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      line += ' ';
      line += cell;
      line += std::string(width[c] - cell.size() + 1, ' ');
      if (c + 1 < width.size()) line += '|';
    }
    line += '\n';
    return line;
  };

  std::string out = render_row(header_);
  out += render_rule();
  for (const auto& row : rows_) {
    out += row.empty() ? render_rule() : render_row(row);
  }
  return out;
}

}  // namespace gps
