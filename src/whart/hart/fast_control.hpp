// Fast control (paper Section VI-D): shorter reporting intervals speed up
// the control loop and deliver fresher data, but each individual message
// gets fewer retry cycles and therefore a lower reachability.  These
// helpers quantify the trade-off; sweep_reporting_interval_series
// (sweep.hpp) gives the full path measures per interval.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace whart::hart {

/// One block of the paper's Fig. 18: a message born in cycle `born_cycle`
/// (0-based, within an observation window) under reporting interval Is
/// reaches the gateway with probability `reachability`.
struct MessageBlock {
  std::uint32_t born_cycle = 0;
  std::uint32_t reporting_interval = 0;
  double reachability = 0.0;
};

/// All message blocks of a one-hop path with per-attempt success `ps`
/// within a window of `window_cycles` cycles (the window must be a
/// multiple of Is): one message every Is cycles, each with reachability
/// 1 - (1-ps)^Is.
std::vector<MessageBlock> one_hop_message_blocks(double ps,
                                                 std::uint32_t window_cycles,
                                                 std::uint32_t Is);

/// The smallest reporting interval whose reachability meets
/// `target_reachability` for an n-hop steady-state path (paper Section
/// VI-D: "select an appropriate Is according to real application
/// requirements").  Returns nullopt when even `max_interval` falls
/// short.
std::optional<std::uint32_t> minimum_reporting_interval(
    std::uint32_t hops, double ps, double target_reachability,
    std::uint32_t max_interval = 32);

}  // namespace whart::hart
