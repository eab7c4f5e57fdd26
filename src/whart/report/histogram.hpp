// ASCII bar charts for pmfs — the text rendering of the paper's figures.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

namespace whart::report {

/// Render a horizontal bar chart: one labeled bar per entry, scaled so the
/// largest value spans `width` characters.  Values must be non-negative.
void print_histogram(std::ostream& out, std::span<const std::string> labels,
                     std::span<const double> values, std::size_t width = 50);

}  // namespace whart::report
