#include "whart/report/histogram.hpp"

#include <algorithm>
#include <ostream>

#include "whart/common/contracts.hpp"
#include "whart/report/table.hpp"

namespace whart::report {

void print_histogram(std::ostream& out, std::span<const std::string> labels,
                     std::span<const double> values, std::size_t width) {
  expects(labels.size() == values.size(), "one label per value");
  expects(width >= 1, "width >= 1");
  double max_value = 0.0;
  std::size_t label_width = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    expects(values[i] >= 0.0, "values are non-negative");
    max_value = std::max(max_value, values[i]);
    label_width = std::max(label_width, labels[i].size());
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << labels[i];
    for (std::size_t pad = labels[i].size(); pad < label_width; ++pad)
      out << ' ';
    out << " |";
    const std::size_t bar =
        max_value > 0.0 ? static_cast<std::size_t>(
                              values[i] / max_value * width + 0.5)
                        : 0;
    out << std::string(bar, '#');
    out << ' ' << Table::fixed(values[i], 4) << '\n';
  }
}

}  // namespace whart::report
