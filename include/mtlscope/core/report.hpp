// Fixed-width text tables for the experiments' text output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mtlscope::core {

/// Accumulates rows, then renders a column-aligned table with a header
/// rule — the format every repro binary prints its paper-vs-measured
/// rows in.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Pads short rows with empty cells; throws std::invalid_argument when
  /// the row has more cells than there are headers.
  void add_row(std::vector<std::string> cells);
  std::string render() const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// "12.34" with the given decimals.
std::string format_double(double v, int decimals = 2);
/// "12.34%" (or "-" when the denominator is zero).
std::string format_percent(double numerator, double denominator,
                           int decimals = 2);
/// "1,234,567"
std::string format_count(std::uint64_t n);

}  // namespace mtlscope::core
