// Quickstart: model one multi-hop WirelessHART uplink path and compute
// the paper's three quality-of-service measures — reachability, delay
// and utilization — in ~40 lines.
//
//   sensor n1 --> relay n2 --> relay n3 --> gateway
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <iostream>

#include "whart/hart/path_analysis.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/link/link_model.hpp"
#include "whart/phy/snr.hpp"

int main() {
  using namespace whart;

  // 1. Describe the physical layer.  A link's failure probability comes
  //    from the measured SNR via the paper's Eqs. 1-2 (OQPSK over AWGN,
  //    1016-bit messages), or directly from a target availability.
  const link::LinkModel radio_link =
      link::LinkModel::from_snr(phy::EbN0::from_linear(7.0));
  std::cout << "link from Eb/N0 = 7: pfl = "
            << radio_link.failure_probability()
            << ", steady-state availability = "
            << radio_link.steady_state_availability() << "\n";

  // 2. Describe the path's TDMA schedule: three hops owning slots 3, 6
  //    and 7 of a 7-slot uplink frame; sensors report every Is = 4
  //    superframe cycles.
  hart::PathModelConfig config;
  config.hop_slots = {3, 6, 7};
  config.superframe = net::SuperframeConfig::symmetric(7);
  config.reporting_interval = 4;

  // 3. Build the hierarchical DTMC (the paper's Algorithm 1) and analyze
  //    it with all links in steady state.
  const hart::PathModel model(config);
  const hart::SteadyStateLinks links(3, radio_link);
  const hart::PathMeasures m = hart::compute_path_measures(model, links);

  std::cout << "\npath n1 -> n2 -> n3 -> G, Is = 4:\n"
            << "  reachability R          = " << m.reachability << "\n"
            << "  expected delay          = " << m.expected_delay_ms
            << " ms\n"
            << "  slot utilization        = " << m.utilization << "\n"
            << "  intervals to first loss = "
            << m.expected_intervals_to_first_loss << "\n";

  std::cout << "  delay pmf (over received messages):\n";
  for (std::size_t i = 0; i < m.cycle_probabilities.size(); ++i)
    std::cout << "    " << m.delay_ms(i) << " ms : "
              << m.delay_probability(i) << "\n";

  // 4. The underlying DTMC is a first-class object, too.
  const markov::Dtmc dtmc = model.to_dtmc(links);
  std::cout << "\nunderlying DTMC: " << dtmc.num_states()
            << " states, initial state "
            << dtmc.state_name(model.initial_state())
            << ", goals R7/R14/R21/R28 + Discard\n";
  return 0;
}
