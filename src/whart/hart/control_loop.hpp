// Closed control loops over WirelessHART (paper Sections II and V-A).
//
// A loop iteration is: sensor sample -> uplink path -> PID at the
// controller -> downlink path -> actuator.  With a symmetric setup the
// downlink mirrors the uplink; since the two directions use disjoint
// slot halves their cycle counts are independent and the loop's cycle
// distribution is the convolution of the two (the paper's remark that
// the loop closes in one cycle with probability 0.4219^2 = 0.178).
#pragma once

#include <cstdint>
#include <vector>

#include "whart/hart/path_analysis.hpp"

namespace whart::hart {

/// Measures of one closed control loop.
struct ControlLoopMeasures {
  /// P(the loop completes in combined cycle m), m = 1..Is.  A loop that
  /// takes a uplink cycles and b downlink cycles completes in cycle
  /// a + b - 1.
  std::vector<double> loop_cycle_probabilities;

  /// Probability that the loop closes within the reporting interval.
  double loop_reachability = 0.0;

  /// P(loop closes in the very first cycle) — the paper's 0.178 for the
  /// example path.
  double first_cycle_probability = 0.0;

  /// Expected end-to-end latency of *closed* loops: E[uplink delay] +
  /// controller processing + E[downlink delay], in milliseconds.  (The
  /// paper notes AI/AO/PID execution is negligible next to a 10 ms
  /// slot.)
  double expected_latency_ms = 0.0;

  /// Expected reporting intervals until the first unclosed loop:
  /// 1 / (1 - loop_reachability); infinity when every loop closes.
  double expected_intervals_to_first_open_loop = 0.0;
};

/// Combine independently-analyzed uplink and downlink path measures into
/// loop measures.  Both must cover the same reporting interval.
/// `controller_processing_ms` defaults to 0 (negligible per the paper).
ControlLoopMeasures analyze_control_loop(const PathMeasures& uplink,
                                         const PathMeasures& downlink,
                                         double controller_processing_ms = 0.0);

/// Symmetric shorthand: downlink mirrors the uplink (same path, same
/// links, downlink half of each superframe).
ControlLoopMeasures analyze_symmetric_control_loop(
    const PathMeasures& uplink, double controller_processing_ms = 0.0);

/// Exact closed-loop analysis with an explicit downlink model.
///
/// `uplink` ages over the uplink half (superframe Fup/Fdown as usual);
/// `downlink` is a PathModelConfig whose hop slots are numbered within
/// the *downlink* half (1..Fdown) and whose superframe is the swapped
/// (Fdown, Fup).  The loop is driven per cycle: a sample delivered in
/// uplink cycle a enters the downlink in the same cycle's downlink half,
/// so a loop taking a uplink and b downlink cycles closes in combined
/// cycle a+b−1 at wall-clock
///   latency = (Fup + d0 + (a+b−2)·(Fup+Fdown)) · 10 ms + processing,
/// where d0 is the downlink chain's last slot within its half.  This is
/// exact where the symmetric shorthand approximates the latency.
ControlLoopMeasures analyze_control_loop_exact(
    const PathModel& uplink, const LinkProbabilityProvider& uplink_links,
    const PathModel& downlink, const LinkProbabilityProvider& downlink_links,
    double controller_processing_ms = 0.0);

}  // namespace whart::hart
