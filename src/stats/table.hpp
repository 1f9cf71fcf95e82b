// Console tables and CSV output for bench harnesses.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "stats/cdf.hpp"
#include "stats/timeseries.hpp"

namespace hwatch::stats {

/// Fixed-width console table.  Benches use it to print the same rows the
/// paper's figures plot.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` decimals.
  static std::string num(double v, int precision = 2);

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Writes "x,y" lines with a header; used to dump CDF and time series
/// next to the console output.
void write_csv(const std::string& path, const std::string& header,
               const std::vector<std::pair<double, double>>& points);

void write_csv(const std::string& path, const std::string& header,
               const TimeSeries& series);

/// Prints several named CDFs side by side at common quantiles — the
/// textual equivalent of one CDF panel with several curves.
void print_cdf_panel(std::ostream& os, const std::string& title,
                     const std::vector<std::pair<std::string, Cdf>>& curves,
                     const std::string& unit);

}  // namespace hwatch::stats
