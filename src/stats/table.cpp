#include "stats/table.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace hwatch::stats {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << "  " << std::setw(static_cast<int>(width[c])) << cells[c];
    }
    os << '\n';
  };
  line(headers_);
  std::string rule;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    rule += "  " + std::string(width[c], '-');
  }
  os << rule << '\n';
  for (const auto& row : rows_) line(row);
}

void write_csv(const std::string& path, const std::string& header,
               const std::vector<std::pair<double, double>>& points) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << header << '\n';
  for (const auto& [x, y] : points) out << x << ',' << y << '\n';
}

void write_csv(const std::string& path, const std::string& header,
               const TimeSeries& series) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << header << '\n';
  for (const auto& p : series) {
    out << sim::to_seconds(p.time) << ',' << p.value << '\n';
  }
}

void print_cdf_panel(std::ostream& os, const std::string& title,
                     const std::vector<std::pair<std::string, Cdf>>& curves,
                     const std::string& unit) {
  os << title << " [" << unit << "]\n";
  std::vector<std::string> headers{"quantile"};
  for (const auto& [name, cdf] : curves) {
    (void)cdf;
    headers.push_back(name);
  }
  Table t(headers);
  for (double q : {0.05, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0}) {
    std::vector<std::string> row{Table::num(q, 2)};
    for (const auto& [name, cdf] : curves) {
      (void)name;
      row.push_back(cdf.empty() ? "-" : Table::num(cdf.quantile(q), 3));
    }
    t.add_row(std::move(row));
  }
  t.print(os);
}

}  // namespace hwatch::stats
