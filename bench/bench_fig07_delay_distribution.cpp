// Fig. 7: delay distribution of the example path (pi(up) = 0.75, Is = 4):
// delays 70/210/350/490 ms, E[tau] = 190.8 ms.
#include "whart/report/histogram.hpp"

#include "bench_common.hpp"

int main() {
  using namespace whart;
  using report::Table;

  bench::print_header("Fig. 7 — delay distribution of the example path",
                      "3-hop path, Fup = 7, Is = 4, pi(up) = 0.75");

  const hart::PathMeasures m = bench::example_measures(0.75);

  std::vector<std::string> labels;
  for (std::size_t i = 0; i < m.cycle_probabilities.size(); ++i)
    labels.push_back(Table::fixed(m.delay_ms(i), 0) + " ms");
  report::print_histogram(std::cout, labels, m.cycle_probabilities);

  std::cout << "\nE[tau] = " << Table::fixed(m.expected_delay_ms, 1)
            << " ms (paper: 190.8 ms)\n"
            << "P(delay = 70 ms) = "
            << Table::fixed(m.cycle_probabilities[0], 4)
            << " (paper: 0.4219)\n"
            << "control loop closed in one cycle (uplink x downlink): "
            << Table::fixed(m.cycle_probabilities[0] *
                                m.cycle_probabilities[0],
                            3)
            << " (paper: 0.178)\n"
            << "path utilization Up = " << Table::fixed(m.utilization, 2)
            << " (paper: 0.14)\n";
  return 0;
}
