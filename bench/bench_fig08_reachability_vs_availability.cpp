// Fig. 8: reachability of the example path as a function of the
// stationary link availability (0.65..0.95).
#include "bench_common.hpp"
#include "whart/hart/sweep.hpp"

int main() {
  using namespace whart;
  using report::Table;

  bench::print_header(
      "Fig. 8 — influence of link availability on reachability",
      "3-hop example path, Is = 4; paper data cursors at 5 availabilities");

  const struct {
    double label;
    double paper;
  } cursors[] = {{0.693, 0.924},
                 {0.774, 0.9737},
                 {0.83, 0.9907},
                 {0.903, 0.9989},
                 {0.948, 0.9999}};

  Table table({"pi(up)", "R (paper)", "R (model)"});
  for (const auto& cursor : cursors) {
    const hart::PathMeasures m = bench::example_measures(cursor.label);
    table.add_row({Table::fixed(cursor.label, 3),
                   Table::fixed(cursor.paper, 4),
                   Table::fixed(m.reachability, 4)});
  }
  table.print(std::cout);

  std::cout << "\nfull curve (availability sweep):\n";
  std::vector<double> grid;
  for (double pi = 0.65; pi <= 0.9501; pi += 0.025) grid.push_back(pi);
  Table curve({"pi(up)", "R"});
  for (const hart::SweepPoint& point :
       hart::sweep_availability(bench::example_path(4), grid).points)
    curve.add_row({Table::fixed(point.parameter, 3),
                   Table::fixed(point.measures.reachability, 5)});
  curve.print(std::cout);
  return 0;
}
