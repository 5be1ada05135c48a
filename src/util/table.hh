#ifndef PUFFER_UTIL_TABLE_HH
#define PUFFER_UTIL_TABLE_HH

#include <string>
#include <vector>

namespace puffer {

/// Minimal fixed-width text table, used by the bench binaries to print
/// paper-style tables (e.g. Figure 1) to stdout.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Render with column alignment; headers underlined.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style float formatting helpers for table cells.
std::string format_fixed(double value, int decimals);
std::string format_percent(double fraction, int decimals);

}  // namespace puffer

#endif  // PUFFER_UTIL_TABLE_HH
