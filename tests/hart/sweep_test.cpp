#include "whart/hart/sweep.hpp"

#include <cstdint>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"

namespace whart::hart {
namespace {

PathModelConfig example_config() {
  PathModelConfig config;
  config.hop_slots = {3, 6, 7};
  config.superframe = net::SuperframeConfig::symmetric(7);
  config.reporting_interval = 4;
  return config;
}

TEST(Linspace, EvenSpacingWithExactEndpoints) {
  const auto v = linspace(0.65, 0.95, 7);
  ASSERT_EQ(v.size(), 7u);
  EXPECT_DOUBLE_EQ(v.front(), 0.65);
  EXPECT_DOUBLE_EQ(v.back(), 0.95);
  EXPECT_NEAR(v[1] - v[0], 0.05, 1e-12);
  // count == 1 is a degenerate grid of exactly {first}; only an empty
  // grid is a contract violation.
  EXPECT_EQ(linspace(0.0, 1.0, 1), std::vector<double>{0.0});
  EXPECT_THROW(linspace(0.0, 1.0, 0), precondition_error);
}

TEST(Linspace, CountTwoIsExactlyTheEndpoints) {
  const auto v = linspace(0.3, 0.7, 2);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 0.3);
  EXPECT_DOUBLE_EQ(v[1], 0.7);
}

TEST(Linspace, DegenerateRangeRepeatsTheValue) {
  const auto v = linspace(0.83, 0.83, 5);
  ASSERT_EQ(v.size(), 5u);
  for (const double x : v) EXPECT_DOUBLE_EQ(x, 0.83);
}

TEST(Linspace, DescendingRangeDescendsWithExactEndpoints) {
  const auto v = linspace(0.99, 0.65, 18);
  ASSERT_EQ(v.size(), 18u);
  EXPECT_DOUBLE_EQ(v.front(), 0.99);
  EXPECT_DOUBLE_EQ(v.back(), 0.65);
  for (std::size_t i = 1; i < v.size(); ++i) EXPECT_LT(v[i], v[i - 1]);
}

TEST(Linspace, CountOneIsASinglePoint) {
  // Regression: count == 1 used to divide by (count - 1) and duplicate
  // the endpoint; a degenerate grid must be exactly {first}.
  const std::vector<double> single = linspace(0.8, 0.95, 1);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single.front(), 0.8);
  const std::vector<double> flat = linspace(0.7, 0.7, 1);
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat.front(), 0.7);
}

TEST(Linspace, EndpointsInclusiveForLargerCounts) {
  const std::vector<double> grid = linspace(0.5, 0.9, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.5);
  EXPECT_DOUBLE_EQ(grid.back(), 0.9);
  for (std::size_t i = 1; i < grid.size(); ++i)
    EXPECT_GT(grid[i], grid[i - 1]);
}

TEST(SweepAvailability, ReachabilityIsMonotone) {
  const SweepSeries series =
      sweep_availability(example_config(), linspace(0.65, 0.95, 13));
  EXPECT_EQ(series.parameter_name, "availability");
  for (std::size_t i = 1; i < series.points.size(); ++i)
    EXPECT_GT(series.points[i].measures.reachability,
              series.points[i - 1].measures.reachability);
}

TEST(SweepBer, ReachabilityFallsWithBer) {
  const SweepSeries series =
      sweep_ber(example_config(), {1e-5, 5e-5, 1e-4, 2e-4, 3e-4});
  for (std::size_t i = 1; i < series.points.size(); ++i)
    EXPECT_LT(series.points[i].measures.reachability,
              series.points[i - 1].measures.reachability);
}

TEST(SweepHopCount, MatchesPaperFig10Shape) {
  const SweepSeries series = sweep_hop_count(
      4, 0.83, net::SuperframeConfig::symmetric(7), 4);
  ASSERT_EQ(series.points.size(), 4u);
  for (std::size_t i = 1; i < series.points.size(); ++i)
    EXPECT_LT(series.points[i].measures.reachability,
              series.points[i - 1].measures.reachability);
  EXPECT_NEAR(series.points[0].measures.reachability, 0.9992, 1e-4);
  EXPECT_THROW(
      sweep_hop_count(8, 0.83, net::SuperframeConfig::symmetric(7), 4),
      precondition_error);
}

TEST(SweepReportingInterval, ReachabilityRisesDelayTailGrows) {
  const SweepSeries series = sweep_reporting_interval_series(
      example_config(), 0.83, {1, 2, 4, 8});
  for (std::size_t i = 1; i < series.points.size(); ++i) {
    EXPECT_GT(series.points[i].measures.reachability,
              series.points[i - 1].measures.reachability);
    EXPECT_GE(series.points[i].measures.delay_jitter_ms,
              series.points[i - 1].measures.delay_jitter_ms);
  }
}

TEST(SweepCsv, HeaderAndRowCount) {
  const SweepSeries series =
      sweep_availability(example_config(), {0.8, 0.9});
  std::ostringstream out;
  write_series_csv(out, series);
  std::istringstream lines(out.str());
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header,
            "availability,reachability,expected_delay_ms,delay_jitter_ms,"
            "utilization,utilization_delivered");
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) ++rows;
  EXPECT_EQ(rows, 2u);
}

TEST(SweepCsv, GoldenOutputForHandBuiltSeries) {
  // Hand-built measures pin the exact byte-for-byte format (std::to_string
  // fixed six-decimal fields, '\n' terminators, no quoting).
  SweepSeries series;
  series.parameter_name = "availability";
  SweepPoint point;
  point.parameter = 0.5;
  point.measures.reachability = 0.875;
  point.measures.expected_delay_ms = 120.0;
  point.measures.delay_jitter_ms = 35.25;
  point.measures.utilization = 0.125;
  point.measures.utilization_delivered = 0.0625;
  series.points.push_back(point);
  point.parameter = 0.75;
  point.measures.reachability = 1.0;
  point.measures.expected_delay_ms = 80.5;
  point.measures.delay_jitter_ms = 0.0;
  point.measures.utilization = 0.25;
  point.measures.utilization_delivered = 0.25;
  series.points.push_back(point);

  std::ostringstream out;
  write_series_csv(out, series);
  EXPECT_EQ(out.str(),
            "availability,reachability,expected_delay_ms,delay_jitter_ms,"
            "utilization,utilization_delivered\n"
            "0.500000,0.875000,120.000000,35.250000,0.125000,0.062500\n"
            "0.750000,1.000000,80.500000,0.000000,0.250000,0.250000\n");
}

TEST(SweepValidation, EmptyInputsThrow) {
  EXPECT_THROW(sweep_availability(example_config(), {}),
               precondition_error);
  EXPECT_THROW(sweep_ber(example_config(), {}), precondition_error);
  EXPECT_THROW(sweep_reporting_interval_series(example_config(), 0.9, {}),
               precondition_error);
}

}  // namespace
}  // namespace whart::hart
