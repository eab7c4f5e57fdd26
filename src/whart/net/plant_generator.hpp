// Random plant-topology generator following the HART Communication
// Foundation statistics the paper cites: in real plant settings about 30%
// of the devices reach the gateway directly, 50% are two hops away, and
// the remaining 20% are three or four hops away.
#pragma once

#include <cstdint>
#include <vector>

#include "whart/link/link_model.hpp"
#include "whart/net/path.hpp"
#include "whart/net/schedule.hpp"
#include "whart/net/schedule_builder.hpp"
#include "whart/net/superframe.hpp"
#include "whart/net/topology.hpp"

namespace whart::net {

/// Parameters for the random plant generator.
struct PlantProfile {
  std::uint32_t device_count = 10;

  /// Hop-depth mix; must sum to 1.  Defaults follow the HART statistics
  /// (the 20% tail is split between 3 and 4 hops).
  double fraction_one_hop = 0.30;
  double fraction_two_hop = 0.50;
  double fraction_three_hop = 0.15;
  double fraction_four_hop = 0.05;

  /// Per-link stationary availability is drawn uniformly from this range.
  double min_availability = 0.83;
  double max_availability = 0.97;

  /// 0 (default): availabilities are continuous uniform draws.  k > 0:
  /// each link's availability is drawn uniformly from k evenly spaced
  /// quality classes spanning [min, max] — real site surveys bin links
  /// into a few classes, and discrete classes make many paths of the
  /// plant structurally identical.
  std::uint32_t availability_levels = 0;

  double recovery_probability = link::LinkModel::kDefaultRecovery;

  SchedulingPolicy policy = SchedulingPolicy::kShortestPathsFirst;

  std::uint64_t seed = 1;
};

/// A generated plant: topology, one uplink path per device, and a schedule
/// in a symmetric superframe just large enough for all hops.
struct GeneratedPlant {
  Network network;
  std::vector<Path> paths;
  Schedule schedule;
  SuperframeConfig superframe;
};

/// Generate a plant (deterministic in `profile.seed`).
/// Devices are assigned hop depths per the profile mix (largest-remainder
/// rounding), each depth-k device relays through a uniformly chosen
/// depth-(k-1) device.
GeneratedPlant generate_plant(const PlantProfile& profile);

}  // namespace whart::net
