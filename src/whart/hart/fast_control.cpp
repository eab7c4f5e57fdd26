#include "whart/hart/fast_control.hpp"

#include <numeric>

#include "whart/common/contracts.hpp"
#include "whart/hart/analytic.hpp"

namespace whart::hart {

std::vector<MessageBlock> one_hop_message_blocks(double ps,
                                                 std::uint32_t window_cycles,
                                                 std::uint32_t Is) {
  expects(Is >= 1, "Is >= 1");
  expects(window_cycles % Is == 0, "window is a multiple of Is");
  expects(ps >= 0.0 && ps <= 1.0, "0 <= ps <= 1");
  double reach = 0.0;
  double miss = 1.0;
  for (std::uint32_t c = 0; c < Is; ++c) {
    reach += miss * ps;
    miss *= 1.0 - ps;
  }
  std::vector<MessageBlock> blocks;
  for (std::uint32_t born = 0; born < window_cycles; born += Is)
    blocks.push_back(MessageBlock{born, Is, reach});
  return blocks;
}

std::optional<std::uint32_t> minimum_reporting_interval(
    std::uint32_t hops, double ps, double target_reachability,
    std::uint32_t max_interval) {
  expects(hops >= 1, "hops >= 1");
  expects(ps >= 0.0 && ps <= 1.0, "0 <= ps <= 1");
  expects(target_reachability >= 0.0 && target_reachability <= 1.0,
          "0 <= target <= 1");
  expects(max_interval >= 1, "max_interval >= 1");
  // Reachability is monotone in Is, so scan the (short) ladder once.
  const std::vector<double> cycles =
      analytic_cycle_probabilities(hops, ps, max_interval);
  double reach = 0.0;
  for (std::uint32_t is = 1; is <= max_interval; ++is) {
    reach += cycles[is - 1];
    if (reach >= target_reachability) return is;
  }
  return std::nullopt;
}

}  // namespace whart::hart
