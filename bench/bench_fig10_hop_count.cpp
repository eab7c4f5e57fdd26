// Fig. 10: influence of the path hop count (1..4) on reachability at
// pi(up) = 0.83.
#include "bench_common.hpp"
#include "whart/hart/sweep.hpp"

int main() {
  using namespace whart;
  using report::Table;

  bench::print_header(
      "Fig. 10 — influence of path hop count on reachability",
      "hops 1..4, pi(up) = 0.83, Is = 4 (WirelessHART guideline: <= 4 "
      "hops)");

  const double paper[] = {0.9992, 0.9964, 0.9907, 0.9812};

  const hart::SweepSeries series = hart::sweep_hop_count(
      4, bench::paper_link(0.83).steady_state_availability(),
      net::SuperframeConfig::symmetric(7), 4);

  Table table({"hops", "R (paper)", "R (model)"});
  for (std::uint32_t hops = 1; hops <= 4; ++hops)
    table.add_row({std::to_string(hops), Table::fixed(paper[hops - 1], 4),
                   Table::fixed(series.points[hops - 1].measures.reachability,
                                4)});
  table.print(std::cout);
  return 0;
}
