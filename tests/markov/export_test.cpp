#include "whart/markov/export.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "whart/hart/path_model.hpp"

namespace whart::markov {
namespace {

Dtmc small_chain() {
  return Dtmc(3, {{0, 1, 0.3}, {0, 0, 0.7}, {1, 1, 1.0}, {2, 2, 1.0}},
              {"start", "goal", "sink"});
}

TEST(ExportDot, ContainsStatesAndEdges) {
  std::ostringstream out;
  write_dot(out, small_chain());
  const std::string dot = out.str();
  EXPECT_NE(dot.find("digraph dtmc"), std::string::npos);
  EXPECT_NE(dot.find("rankdir=LR"), std::string::npos);
  EXPECT_NE(dot.find("label=\"start\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"goal\", shape=doublecircle"),
            std::string::npos);
  EXPECT_NE(dot.find("s0 -> s1 [label=\"0.3\"]"), std::string::npos);
  // Absorbing self-loops are suppressed for readability.
  EXPECT_EQ(dot.find("s1 -> s1"), std::string::npos);
}

TEST(ExportDot, MinProbabilityFiltersEdges) {
  DotOptions options;
  options.min_probability = 0.5;
  std::ostringstream out;
  write_dot(out, small_chain(), options);
  EXPECT_EQ(out.str().find("s0 -> s1"), std::string::npos);
  EXPECT_NE(out.str().find("s0 -> s0"), std::string::npos);
}

TEST(Export, PathModelChainRoundTripsThroughBothFormats) {
  hart::PathModelConfig config;
  config.hop_slots = {3, 6, 7};
  config.superframe = net::SuperframeConfig::symmetric(7);
  config.reporting_interval = 2;
  const hart::PathModel model(config);
  const hart::SteadyStateLinks links(
      3, link::LinkModel::from_availability(0.75));
  const Dtmc chain = model.to_dtmc(links);

  std::ostringstream dot;
  write_dot(dot, chain);
  EXPECT_NE(dot.str().find("(1,-,-)"), std::string::npos);
  EXPECT_NE(dot.str().find("R7"), std::string::npos);
  EXPECT_NE(dot.str().find("Discard"), std::string::npos);

  // Every transition but the absorbing self-loops becomes one edge.  (The
  // suite name predates the removal of the PRISM writer.)
  const std::size_t self_loops = chain.absorbing_states().size();
  std::size_t edges = 0;
  for (std::size_t at = dot.str().find(" -> "); at != std::string::npos;
       at = dot.str().find(" -> ", at + 1))
    ++edges;
  EXPECT_EQ(edges, chain.matrix().nonzeros() - self_loops);
}

}  // namespace
}  // namespace whart::markov
