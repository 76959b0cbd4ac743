// Plain-text table rendering and number formatting used by the benchmark
// binaries that regenerate the paper's tables and figures.

#ifndef GPS_UTIL_TABLE_H_
#define GPS_UTIL_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace gps {

/// Formats a count with the K/M/B/T suffixes the paper's Table 1 uses
/// (e.g. 56.3M, 4.9B). Values below 1000 are printed as integers.
std::string HumanCount(double value);

/// Formats a double with the given number of significant decimals, trimming
/// trailing zeros (e.g. 0.0036, 0.216).
std::string FormatDouble(double value, int decimals = 4);

/// Column-aligned ASCII table writer.
///
/// Usage:
///   TextTable t({"graph", "|K|", "ARE"});
///   t.AddRow({"soc-orkut-sim", "1.0M", "0.0028"});
///   std::cout << t.ToString();
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends a data row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  /// Appends a horizontal separator line.
  void AddSeparator();

  /// Renders the table with column alignment and a header rule.
  std::string ToString() const;

 private:
  std::vector<std::string> header_;
  // Separator rows are encoded as empty vectors.
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace gps

#endif  // GPS_UTIL_TABLE_H_
