// Property-based scenario generation for the verification subsystem.
//
// A Scenario is a complete, self-contained model input: a superframe, a
// reporting interval, an optional TTL, and a set of TDMA-disjoint paths,
// each with its own slot assignment (possibly out of hop order, possibly
// with dedicated retry slots) and per-hop Gilbert link models.  The
// ScenarioGenerator samples scenarios deterministically from a 64-bit
// seed — the same seed always yields the same scenario, so every failure
// the fuzzer finds is reproducible from one integer.  Seeds of past
// failures persist in a corpus file (one seed per line) that the runner
// replays before exploring fresh ones.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "whart/hart/path_model.hpp"
#include "whart/link/channel_model.hpp"
#include "whart/link/link_model.hpp"
#include "whart/net/path.hpp"
#include "whart/net/schedule.hpp"
#include "whart/net/superframe.hpp"
#include "whart/net/topology.hpp"

namespace whart::verify {

/// One path of a scenario: slots (1-based within the uplink frame) and
/// the link model of every hop.
struct ScenarioPath {
  std::vector<net::SlotNumber> hop_slots;
  /// Empty, or one entry per hop (0 = no retry slot for that hop).
  std::vector<net::SlotNumber> retry_slots;
  /// One Gilbert model per hop.
  std::vector<link::LinkModel> links;

  [[nodiscard]] std::size_t hop_count() const noexcept {
    return hop_slots.size();
  }
};

/// A generated model input.  Invariant: every non-zero slot across all
/// paths (hop and retry) is distinct — TDMA allows one transmission per
/// slot network-wide.
struct Scenario {
  /// The generator seed that produced this scenario (0 for hand-built).
  std::uint64_t seed = 0;
  net::SuperframeConfig superframe{1, 1};
  std::uint32_t reporting_interval = 1;
  /// Message TTL in uplink slots; unset = full horizon.
  std::optional<std::uint32_t> ttl;
  /// Correlated-channel overlay: a network-wide channel template that
  /// every hop runs rescaled to its own stationary availability
  /// (link::ChannelModel::with_marginal_success).  Unset = the classic
  /// per-slot-independent regime.
  std::optional<link::ChannelModel> channel;
  std::vector<ScenarioPath> paths;

  [[nodiscard]] std::size_t path_count() const noexcept {
    return paths.size();
  }

  /// Largest hop count over all paths.
  [[nodiscard]] std::size_t max_hops() const noexcept;

  /// True when any path carries a retry slot.  Retry slots cannot be
  /// expressed in a net::Schedule, so such scenarios skip the
  /// simulator leg of the oracle.
  [[nodiscard]] bool has_retry_slots() const noexcept;

  /// Path model config of path `index`.
  [[nodiscard]] hart::PathModelConfig path_config(std::size_t index) const;

  /// Steady-state availability of each hop of path `index`.
  [[nodiscard]] std::vector<double> hop_availabilities(
      std::size_t index) const;

  /// Per-hop channel chains of path `index`: the scenario's channel
  /// template rescaled to each hop's availability.  Requires
  /// channel.has_value().
  [[nodiscard]] std::vector<link::ChannelModel> hop_channels(
      std::size_t index) const;

  /// True when path `index`'s hop slots are in increasing order (the
  /// regime where the paper's closed forms are exact).
  [[nodiscard]] bool slots_sorted(std::size_t index) const;

  /// One-line human-readable description (for failure reports).
  [[nodiscard]] std::string to_string() const;

  /// Throws whart::invariant_error when the scenario is malformed
  /// (slot collisions, out-of-range slots, missing links).
  void validate() const;
};

/// The scenario realized as a network + paths + schedule, ready for the
/// Monte-Carlo simulator.  Each path becomes its own chain of fresh
/// nodes ending at the gateway, so paths share no links.
struct BuiltScenario {
  net::Network network;
  std::vector<net::Path> paths;
  net::Schedule schedule;
};

/// Build the simulator view.  Requires !scenario.has_retry_slots().
BuiltScenario build_network(const Scenario& scenario);

/// Sampling bounds of the generator.  The defaults keep single-scenario
/// verification under a few milliseconds for the deterministic legs
/// while still covering multi-path frames, out-of-order slots, retry
/// slots, mid-horizon TTLs and degenerate links.
struct GeneratorLimits {
  std::size_t max_paths = 3;
  std::uint32_t max_hops = 4;
  std::uint32_t max_reporting_interval = 5;
  /// Extra idle slots appended to the minimum frame size.
  std::uint32_t max_idle_slots = 5;
  /// Probability that a path gets dedicated retry slots.
  double retry_probability = 0.2;
  /// Probability of a TTL strictly inside the horizon.
  double ttl_probability = 0.3;
  /// Probability that a hop draws a degenerate link (pfl = 0, pfl = 1,
  /// or near-zero availability) instead of a mid-range one.
  double edge_link_probability = 0.15;
  /// Probability of a correlated-channel overlay (Gilbert-Elliott with
  /// seeded burst parameters, occasionally a 3-state fading chain).  The
  /// overlay is drawn from an RNG stream forked off the seed, so seeds
  /// from pre-channel corpora still produce the same base scenario.
  double channel_probability = 0.45;
};

/// Deterministic scenario sampler: generate(seed) is a pure function.
class ScenarioGenerator {
 public:
  explicit ScenarioGenerator(GeneratorLimits limits = {});

  [[nodiscard]] Scenario generate(std::uint64_t seed) const;

  [[nodiscard]] const GeneratorLimits& limits() const noexcept {
    return limits_;
  }

 private:
  GeneratorLimits limits_;
};

/// Load a seed corpus (one decimal seed per line, '#' comments).  A
/// missing file is an empty corpus; a line that is not a whole unsigned
/// 64-bit number throws std::runtime_error naming the file and line.
std::vector<std::uint64_t> load_corpus(const std::string& path);

/// Append `seed` to the corpus file unless already present.  Throws
/// std::runtime_error naming `path` when the file cannot be written.
void append_corpus(const std::string& path, std::uint64_t seed);

}  // namespace whart::verify
