// whart — WirelessHART modeling and performance evaluation.
//
// A C++20 reproduction of "WirelessHART Modeling and Performance
// Evaluation" (Remke & Wu, DSN 2013): a hierarchical DTMC model of
// message delivery over TDMA-scheduled multi-hop uplink paths, with
// reachability / delay / utilization measures, path composition for
// routing prediction, failure-robustness analysis, and a slot-level
// Monte-Carlo simulator for validation.
//
// Umbrella header: includes the whole public API.  Prefer the individual
// headers in translation units that only need a slice.
//
// Layer map (bottom to top):
//   whart/common/*    contracts, thread pool, observability (metrics/spans)
//   whart/numeric/*   probability, combinatorics, distributions, RNG
//   whart/linalg/*    dense/sparse matrices, LU, convolution
//   whart/phy/*       SNR, modulation BER curves, BSC, HART framing
//   whart/markov/*    general DTMC machinery
//   whart/link/*      two-state link model, failure scripts, blacklist
//   whart/net/*       topology, paths, routing, TDMA schedules
//   whart/hart/*      the paper's contribution: path/network analysis
//   whart/sim/*       Monte-Carlo simulator
//   whart/report/*    tables, histograms, CSV
//   whart/cli/*       network-spec parser for the whart_cli tool
#pragma once

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/common/parallel.hpp"

#include "whart/numeric/combinatorics.hpp"
#include "whart/numeric/distributions.hpp"
#include "whart/numeric/probability.hpp"
#include "whart/numeric/rng.hpp"

#include "whart/linalg/convolution.hpp"
#include "whart/linalg/lu.hpp"
#include "whart/linalg/matrix.hpp"
#include "whart/linalg/sparse.hpp"
#include "whart/linalg/vector.hpp"

#include "whart/phy/bsc.hpp"
#include "whart/phy/frame.hpp"
#include "whart/phy/modulation.hpp"
#include "whart/phy/path_loss.hpp"
#include "whart/phy/pilot.hpp"
#include "whart/phy/snr.hpp"

#include "whart/markov/absorbing.hpp"
#include "whart/markov/export.hpp"
#include "whart/markov/dtmc.hpp"
#include "whart/markov/hitting.hpp"
#include "whart/markov/limiting.hpp"
#include "whart/markov/simulate.hpp"
#include "whart/markov/steady_state.hpp"
#include "whart/markov/structure.hpp"
#include "whart/markov/transient.hpp"

#include "whart/link/blacklist.hpp"
#include "whart/link/failure_script.hpp"
#include "whart/link/fitting.hpp"
#include "whart/link/link_model.hpp"

#include "whart/net/downlink.hpp"
#include "whart/net/export.hpp"
#include "whart/net/ids.hpp"
#include "whart/net/path.hpp"
#include "whart/net/plant_generator.hpp"
#include "whart/net/routing.hpp"
#include "whart/net/schedule.hpp"
#include "whart/net/spatial_plant.hpp"
#include "whart/net/schedule_builder.hpp"
#include "whart/net/superframe.hpp"
#include "whart/net/topology.hpp"
#include "whart/net/typical_network.hpp"

#include "whart/hart/analytic.hpp"
#include "whart/hart/composition.hpp"
#include "whart/hart/control_loop.hpp"
#include "whart/hart/energy.hpp"
#include "whart/hart/failure.hpp"
#include "whart/hart/fast_control.hpp"
#include "whart/hart/link_probability.hpp"
#include "whart/hart/network_analysis.hpp"
#include "whart/hart/path_analysis.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/hart/schedule_optimizer.hpp"
#include "whart/hart/sensitivity.hpp"
#include "whart/hart/stability.hpp"
#include "whart/hart/sweep.hpp"
#include "whart/hart/validation.hpp"

#include "whart/sim/link_trace.hpp"
#include "whart/sim/simulator.hpp"
#include "whart/sim/stats.hpp"

#include "whart/report/csv.hpp"
#include "whart/report/histogram.hpp"
#include "whart/report/metrics_export.hpp"
#include "whart/report/table.hpp"
