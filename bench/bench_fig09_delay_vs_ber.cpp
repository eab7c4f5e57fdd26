// Fig. 9: delay distributions of the example path for four bit error
// rates (3e-4, 2e-4, 1e-4, 5e-5), i.e. availabilities 0.774..0.948.
#include "bench_common.hpp"
#include "whart/hart/sweep.hpp"

int main() {
  using namespace whart;
  using report::Table;

  bench::print_header(
      "Fig. 9 — influence of link availability (BER) on the delay "
      "distribution",
      "3-hop example path, Is = 4; one column per BER curve");

  const hart::SweepSeries series =
      hart::sweep_ber(bench::example_path(4), {3e-4, 2e-4, 1e-4, 5e-5});

  std::vector<hart::PathMeasures> measures;
  Table header({"BER", "pi(up)", "tau(70)", "tau(210)", "tau(350)",
                "tau(490)"});
  for (const hart::SweepPoint& point : series.points) {
    const hart::PathMeasures& m = point.measures;
    header.add_row(
        {Table::scientific(point.parameter, 0),
         Table::fixed(link::LinkModel::from_ber(point.parameter)
                          .steady_state_availability(),
                      3),
         Table::fixed(m.delay_probability(0), 4),
         Table::fixed(m.delay_probability(1), 4),
         Table::fixed(m.delay_probability(2), 4),
         Table::fixed(m.delay_probability(3), 4)});
    measures.push_back(m);
  }
  header.print(std::cout);

  std::cout
      << "\npaper data cursors: tau(210) = 0.3228 at pi = 0.774; "
         "tau(210) = 0.1332 and tau(350) = 0.1459 appear on the flatter "
         "curves\n"
      << "paper narrative: at pi = 0.948, 98.5% of messages arrive within "
         "200 ms; at pi = 0.774 only 77.8%\n";
  const auto head2 = [](const hart::PathMeasures& m) {
    return m.delay_probability(0) + m.delay_probability(1);
  };
  std::cout << "model: P(delay <= 210ms | received) at pi = 0.948: "
            << Table::percent(head2(measures[3]), 1)
            << " (paper: 98.5%); at pi = 0.774: "
            << Table::percent(head2(measures[0]), 1) << "\n"
            << "model: tau(490ms) at pi = 0.774: "
            << Table::percent(measures[0].delay_probability(3), 1)
            << " (paper: \"more than 5.3%\")\n";
  return 0;
}
