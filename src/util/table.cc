#include "util/table.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/require.hh"

namespace puffer {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  require(!headers_.empty(), "Table: need at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  require(cells.size() == headers_.size(),
          "Table: row width must match header width");
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); c++) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); c++) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); c++) {
      out << row[c] << std::string(widths[c] - row[c].size() + 2, ' ');
    }
    out << '\n';
  };
  emit_row(headers_);
  size_t total = 0;
  for (const size_t w : widths) {
    total += w + 2;
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

std::string format_fixed(const double value, const int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::string format_percent(const double fraction, const int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f%%", decimals, fraction * 100.0);
  return buffer;
}

}  // namespace puffer
