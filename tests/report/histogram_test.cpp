#include "whart/report/histogram.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"

namespace whart::report {
namespace {

std::string render(const std::vector<std::string>& labels,
                   const std::vector<double>& values, std::size_t width = 50) {
  std::ostringstream out;
  print_histogram(out, labels, values, width);
  return out.str();
}

TEST(Histogram, RendersOneLinePerEntry) {
  const std::vector<std::string> labels{"70 ms", "210 ms"};
  const std::vector<double> values{0.4, 0.2};
  const std::string out = render(labels, values, 10);
  EXPECT_NE(out.find("70 ms"), std::string::npos);
  EXPECT_NE(out.find("210 ms"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(Histogram, LargestValueGetsFullWidth) {
  const std::vector<std::string> labels{"a", "b"};
  const std::vector<double> values{1.0, 0.5};
  const std::string out = render(labels, values, 10);
  EXPECT_NE(out.find(std::string(10, '#')), std::string::npos);
  EXPECT_EQ(out.find(std::string(11, '#')), std::string::npos);
}

TEST(Histogram, AllZerosRenderEmptyBars) {
  const std::vector<std::string> labels{"a"};
  const std::vector<double> values{0.0};
  const std::string out = render(labels, values, 10);
  EXPECT_EQ(out.find('#'), std::string::npos);
}

TEST(Histogram, MismatchedSizesThrow) {
  const std::vector<std::string> labels{"a"};
  const std::vector<double> values{1.0, 2.0};
  EXPECT_THROW(render(labels, values), precondition_error);
}

TEST(Histogram, NegativeValuesThrow) {
  const std::vector<std::string> labels{"a"};
  const std::vector<double> values{-0.1};
  EXPECT_THROW(render(labels, values), precondition_error);
}

}  // namespace
}  // namespace whart::report
