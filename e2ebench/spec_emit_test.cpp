// parse(emit(x)) must reproduce x: the benchmark's inputs reach the
// library only as spec text, so a lossy emitter would silently change the
// model under measurement.
#include "spec_emit.hpp"

#include <gtest/gtest.h>

#include "whart/cli/spec_parser.hpp"
#include "whart/net/plant_generator.hpp"
#include "whart/net/typical_network.hpp"

namespace whart::e2e {
namespace {

void expect_same_links(const net::Network& a, const net::Network& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (std::uint32_t id = 0; id < a.node_count(); ++id)
    EXPECT_EQ(a.node_name(net::NodeId{id}), b.node_name(net::NodeId{id}));
  ASSERT_EQ(a.link_count(), b.link_count());
  for (const net::LinkId id : a.links()) {
    const net::Link& x = a.link(id);
    const net::Link& y = b.link(id);
    EXPECT_EQ(x.a, y.a);
    EXPECT_EQ(x.b, y.b);
    // Bitwise, not approximately: operator== compares the doubles.
    EXPECT_EQ(x.model, y.model) << "link " << id.value;
  }
}

void expect_same_schedule(const net::Schedule& a, const net::Schedule& b) {
  ASSERT_EQ(a.uplink_slots(), b.uplink_slots());
  ASSERT_EQ(a.path_count(), b.path_count());
  for (net::SlotNumber slot = 1; slot <= a.uplink_slots(); ++slot)
    EXPECT_EQ(a.entry(slot), b.entry(slot)) << "slot " << slot;
  for (std::size_t p = 0; p < a.path_count(); ++p)
    EXPECT_EQ(a.path_slots(p), b.path_slots(p)) << "path " << p;
}

TEST(SpecEmit, TypicalNetworkReproducesEtaAAndEtaB) {
  const net::TypicalNetwork t = net::make_typical_network();
  for (const auto policy : {net::SchedulingPolicy::kShortestPathsFirst,
                            net::SchedulingPolicy::kLongestPathsFirst}) {
    const cli::ParsedSpec spec = cli::parse_spec_string(
        emit_spec(t.network, t.paths, t.superframe, 4, policy));
    expect_same_links(t.network, spec.network);
    EXPECT_EQ(spec.paths, t.paths);
    EXPECT_EQ(spec.superframe, t.superframe);
    EXPECT_EQ(spec.reporting_interval, 4u);
    EXPECT_EQ(spec.policy, policy);
    const net::Schedule schedule = net::build_schedule(
        spec.paths, spec.superframe.uplink_slots, spec.policy);
    expect_same_schedule(schedule,
                         policy == net::SchedulingPolicy::kShortestPathsFirst
                             ? t.eta_a
                             : t.eta_b);
  }
}

TEST(SpecEmit, GeneratedPlantRoundTripsBitwise) {
  net::PlantProfile profile;
  profile.device_count = 200;
  profile.seed = 7;
  const net::GeneratedPlant plant = net::generate_plant(profile);
  const cli::ParsedSpec spec = cli::parse_spec_string(
      emit_spec(plant.network, plant.paths, plant.superframe, 2,
                profile.policy));
  expect_same_links(plant.network, spec.network);
  EXPECT_EQ(spec.paths, plant.paths);
  EXPECT_EQ(spec.superframe, plant.superframe);
  EXPECT_EQ(spec.reporting_interval, 2u);
  expect_same_schedule(
      net::build_schedule(spec.paths, spec.superframe.uplink_slots,
                          spec.policy),
      plant.schedule);
}

TEST(SpecEmit, RejectsWhatTheFormatCannotSay) {
  const net::TypicalNetwork t = net::make_typical_network();
  EXPECT_THROW(emit_spec(t.network, t.paths, t.superframe, 4,
                         net::SchedulingPolicy::kDeclarationOrder),
               std::invalid_argument);
  net::Network spaced;
  spaced.add_node("a b");
  EXPECT_THROW(emit_spec(spaced, {}, t.superframe, 4,
                         net::SchedulingPolicy::kShortestPathsFirst),
               std::invalid_argument);
}

}  // namespace
}  // namespace whart::e2e
