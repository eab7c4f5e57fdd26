// The umbrella header must compile and expose the whole public API.
#include "whart/whart.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace whart {
namespace {

TEST(Umbrella, EndToEndThroughTheUmbrellaHeader) {
  // Touch one symbol from every layer to keep the umbrella honest.
  const auto link = link::LinkModel::from_snr(phy::EbN0::from_db(8.45));
  EXPECT_GT(link.steady_state_availability(), 0.9);

  const net::TypicalNetwork t = net::make_typical_network(link);
  const hart::NetworkMeasures measures = hart::analyze_network(
      t.network, t.paths, t.eta_a, t.superframe, 4);
  EXPECT_EQ(measures.per_path.size(), 10u);

  // A what-if back to a link's own availability re-walks its paths and
  // reproduces the network view bit for bit.
  hart::WhatIfEngine engine(t.network, t.paths, t.eta_a, t.superframe, 4);
  const net::LinkId changed = engine.links().front();
  hart::WhatIfResult what_if =
      engine.what_if(changed, engine.baseline_availability(changed));
  EXPECT_GT(what_if.paths_resolved, 0u);
  const hart::NetworkMeasures replayed =
      hart::aggregate_measures(std::move(what_if.per_path));
  EXPECT_EQ(replayed.overall_delay_distribution,
            measures.overall_delay_distribution);
  EXPECT_EQ(replayed.mean_delay_ms, measures.mean_delay_ms);

  const auto energies = hart::estimate_node_energy(
      t.network, t.paths, t.eta_a, t.superframe, 4);
  EXPECT_EQ(energies.size(), t.network.node_count());

  const hart::StabilityAssessment stability = hart::assess_stability(
      measures.per_path[0].reachability, hart::StabilityRequirement{});
  EXPECT_GT(stability.reachability, 0.99);

  const linalg::Matrix identity = linalg::Matrix::identity(3);
  const linalg::Vector x =
      linalg::LuDecomposition(identity).solve(linalg::Vector{1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(x[2], 3.0);

  numeric::Xoshiro256 rng(1);
  sim::RunningStat stat;
  for (int i = 0; i < 10; ++i) stat.add(rng.uniform());
  EXPECT_EQ(stat.count(), 10u);

  report::Table table({"ok"});
  table.add_row({"yes"});
  EXPECT_EQ(table.row_count(), 1u);
}

}  // namespace
}  // namespace whart
