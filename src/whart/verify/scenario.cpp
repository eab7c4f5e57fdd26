#include "whart/verify/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "whart/cli/parse_number.hpp"
#include "whart/common/contracts.hpp"
#include "whart/numeric/rng.hpp"

namespace whart::verify {

std::size_t Scenario::max_hops() const noexcept {
  std::size_t hops = 0;
  for (const ScenarioPath& path : paths)
    hops = std::max(hops, path.hop_count());
  return hops;
}

bool Scenario::has_retry_slots() const noexcept {
  for (const ScenarioPath& path : paths)
    for (net::SlotNumber slot : path.retry_slots)
      if (slot != 0) return true;
  return false;
}

hart::PathModelConfig Scenario::path_config(std::size_t index) const {
  expects(index < paths.size(), "path index in range");
  hart::PathModelConfig config;
  config.hop_slots = paths[index].hop_slots;
  config.retry_slots = paths[index].retry_slots;
  config.superframe = superframe;
  config.reporting_interval = reporting_interval;
  config.ttl = ttl;
  return config;
}

std::vector<double> Scenario::hop_availabilities(std::size_t index) const {
  expects(index < paths.size(), "path index in range");
  std::vector<double> availability;
  availability.reserve(paths[index].links.size());
  for (const link::LinkModel& link : paths[index].links)
    availability.push_back(link.steady_state_availability());
  return availability;
}

std::vector<link::ChannelModel> Scenario::hop_channels(
    std::size_t index) const {
  expects(index < paths.size(), "path index in range");
  expects(channel.has_value(), "scenario carries a channel overlay");
  std::vector<link::ChannelModel> channels;
  channels.reserve(paths[index].links.size());
  for (const link::LinkModel& link : paths[index].links)
    channels.push_back(
        channel->with_marginal_success(link.steady_state_availability()));
  return channels;
}

bool Scenario::slots_sorted(std::size_t index) const {
  expects(index < paths.size(), "path index in range");
  return std::is_sorted(paths[index].hop_slots.begin(),
                        paths[index].hop_slots.end());
}

std::string Scenario::to_string() const {
  std::ostringstream out;
  out << "scenario{seed=" << seed << " Fup=" << superframe.uplink_slots
      << " Fdown=" << superframe.downlink_slots
      << " Is=" << reporting_interval;
  if (ttl.has_value()) out << " ttl=" << *ttl;
  if (channel.has_value()) out << " channel=" << channel->to_string();
  for (std::size_t p = 0; p < paths.size(); ++p) {
    out << " path" << p + 1 << "[";
    for (std::size_t h = 0; h < paths[p].hop_count(); ++h) {
      if (h > 0) out << " ";
      out << "s" << paths[p].hop_slots[h];
      if (h < paths[p].retry_slots.size() && paths[p].retry_slots[h] != 0)
        out << "+r" << paths[p].retry_slots[h];
      out << ":pfl=" << paths[p].links[h].failure_probability()
          << ",prc=" << paths[p].links[h].recovery_probability();
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

void Scenario::validate() const {
  ensures(!paths.empty(), "scenario has at least one path");
  ensures(superframe.uplink_slots >= 1, "Fup >= 1");
  ensures(reporting_interval >= 1, "Is >= 1");
  if (ttl.has_value()) ensures(*ttl >= 1, "ttl >= 1");
  std::set<net::SlotNumber> used;
  for (const ScenarioPath& path : paths) {
    ensures(!path.hop_slots.empty(), "path has at least one hop");
    ensures(path.links.size() == path.hop_count(),
            "one link model per hop");
    ensures(path.retry_slots.empty() ||
                path.retry_slots.size() == path.hop_count(),
            "retry_slots empty or one per hop");
    const auto check_slot = [&](net::SlotNumber slot) {
      ensures(slot >= 1 && slot <= superframe.uplink_slots,
              "slot within the uplink frame");
      ensures(used.insert(slot).second, "TDMA: one transmission per slot");
    };
    for (net::SlotNumber slot : path.hop_slots) check_slot(slot);
    for (net::SlotNumber slot : path.retry_slots)
      if (slot != 0) check_slot(slot);
  }
}

BuiltScenario build_network(const Scenario& scenario) {
  expects(!scenario.has_retry_slots(),
          "retry slots cannot be expressed in a net::Schedule");
  scenario.validate();

  BuiltScenario built{net::Network{}, {},
                      net::Schedule(scenario.superframe.uplink_slots,
                                    scenario.paths.size())};
  for (std::size_t p = 0; p < scenario.paths.size(); ++p) {
    const ScenarioPath& path = scenario.paths[p];
    // Chain p: pPn1 -> pPn2 -> ... -> G, one fresh node per non-gateway
    // position so paths never share links.
    std::vector<net::NodeId> nodes;
    for (std::size_t h = 0; h < path.hop_count(); ++h)
      nodes.push_back(built.network.add_node(
          "p" + std::to_string(p + 1) + "n" + std::to_string(h + 1)));
    nodes.push_back(net::kGateway);
    for (std::size_t h = 0; h < path.hop_count(); ++h)
      built.network.add_link(nodes[h], nodes[h + 1], path.links[h]);
    for (std::size_t h = 0; h < path.hop_count(); ++h)
      built.schedule.assign(path.hop_slots[h], p, h, nodes[h], nodes[h + 1]);
    built.paths.emplace_back(std::move(nodes));
  }
  return built;
}

ScenarioGenerator::ScenarioGenerator(GeneratorLimits limits)
    : limits_(limits) {
  expects(limits_.max_paths >= 1, "max_paths >= 1");
  expects(limits_.max_hops >= 1, "max_hops >= 1");
  expects(limits_.max_reporting_interval >= 1, "max_reporting_interval >= 1");
}

namespace {

link::LinkModel sample_link(numeric::Xoshiro256& rng, double edge_probability) {
  if (rng.uniform() < edge_probability) {
    // Degenerate corners the fuzzer must keep hitting: a perfect link
    // (pfl = 0), a link that fails every slot it is probed in (pfl = 1),
    // and a barely-alive link (availability -> 0).
    switch (rng.below(3)) {
      case 0:
        return link::LinkModel(0.0, 0.05 + 0.95 * rng.uniform());
      case 1:
        return link::LinkModel(1.0, 0.05 + 0.95 * rng.uniform());
      default:
        return link::LinkModel(0.95 + 0.05 * rng.uniform(),
                               0.01 + 0.04 * rng.uniform());
    }
  }
  // Mid-range: pfl in [0, 0.6], prc in [0.4, 1] — availability roughly
  // in [0.4, 1].
  return link::LinkModel(0.6 * rng.uniform(), 0.4 + 0.6 * rng.uniform());
}

}  // namespace

Scenario ScenarioGenerator::generate(std::uint64_t seed) const {
  numeric::Xoshiro256 rng(seed);
  Scenario scenario;
  scenario.seed = seed;

  const std::size_t path_count = 1 + rng.below(limits_.max_paths);
  std::vector<std::size_t> hops(path_count);
  std::vector<bool> with_retries(path_count);
  std::size_t transmissions = 0;
  for (std::size_t p = 0; p < path_count; ++p) {
    hops[p] = 1 + rng.below(limits_.max_hops);
    with_retries[p] = rng.uniform() < limits_.retry_probability;
    transmissions += hops[p] * (with_retries[p] ? 2 : 1);
  }

  const std::uint32_t fup = static_cast<std::uint32_t>(transmissions) +
                            static_cast<std::uint32_t>(
                                rng.below(limits_.max_idle_slots + 1));
  scenario.superframe =
      net::SuperframeConfig{fup, static_cast<std::uint32_t>(
                                     rng.below(std::uint64_t{fup} + 1))};
  scenario.reporting_interval =
      1 + static_cast<std::uint32_t>(
              rng.below(limits_.max_reporting_interval));

  // Distinct slots for every transmission opportunity, in random frame
  // positions — hop order within a path is deliberately NOT sorted, so
  // out-of-order schedules (hops waiting a full cycle) are routine.
  std::vector<net::SlotNumber> pool(fup);
  std::iota(pool.begin(), pool.end(), net::SlotNumber{1});
  const auto draw_slot = [&]() {
    const std::size_t pick = rng.below(pool.size());
    const net::SlotNumber slot = pool[pick];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    return slot;
  };

  for (std::size_t p = 0; p < path_count; ++p) {
    ScenarioPath path;
    for (std::size_t h = 0; h < hops[p]; ++h) {
      path.hop_slots.push_back(draw_slot());
      path.links.push_back(sample_link(rng, limits_.edge_link_probability));
    }
    if (with_retries[p]) {
      for (std::size_t h = 0; h < hops[p]; ++h)
        path.retry_slots.push_back(rng.uniform() < 0.5 ? draw_slot() : 0);
      // Normalize all-zero retry vectors to "no retries".
      if (std::all_of(path.retry_slots.begin(), path.retry_slots.end(),
                      [](net::SlotNumber s) { return s == 0; }))
        path.retry_slots.clear();
    }
    scenario.paths.push_back(std::move(path));
  }

  const std::uint32_t horizon =
      scenario.reporting_interval * scenario.superframe.uplink_slots;
  if (rng.uniform() < limits_.ttl_probability)
    scenario.ttl = 1 + static_cast<std::uint32_t>(rng.below(horizon));

  // Correlated-channel overlay, drawn from a *forked* stream so the base
  // scenario of any seed is identical with and without the feature (and
  // pre-channel corpus seeds keep meaning what they meant).
  numeric::Xoshiro256 channel_rng(seed ^ 0x6368616E6E656CULL);
  if (channel_rng.uniform() < limits_.channel_probability) {
    if (channel_rng.uniform() < 0.8) {
      // Gilbert-Elliott with seeded burst parameters: bursty bad states
      // (mean burst length 1/p_bg in [1.25, 10] slots) and a clear
      // good/bad error-rate separation.
      const double p_gb = 0.05 + 0.45 * channel_rng.uniform();
      const double p_bg = 0.1 + 0.7 * channel_rng.uniform();
      const double e_g = 0.15 * channel_rng.uniform();
      const double e_b = 0.35 + 0.6 * channel_rng.uniform();
      scenario.channel =
          link::ChannelModel::gilbert_elliott(p_gb, p_bg, e_g, e_b);
    } else {
      // 3-state fading chain: rows biased toward staying put (fading is
      // slow), error rates ordered good < mid < bad.
      std::vector<double> rows;
      for (std::size_t r = 0; r < 3; ++r) {
        double w[3];
        double total = 0.0;
        for (std::size_t c = 0; c < 3; ++c) {
          w[c] = (r == c ? 2.0 : 0.1) + channel_rng.uniform();
          total += w[c];
        }
        for (double x : w) rows.push_back(x / total);
      }
      scenario.channel = link::ChannelModel::chain(
          std::move(rows), {0.1 * channel_rng.uniform(),
                            0.2 + 0.3 * channel_rng.uniform(),
                            0.6 + 0.35 * channel_rng.uniform()});
    }
  }

  scenario.validate();
  return scenario;
}

std::vector<std::uint64_t> load_corpus(const std::string& path) {
  std::vector<std::uint64_t> seeds;
  std::ifstream file(path);
  if (!file) return seeds;
  std::string line;
  for (std::size_t number = 1; std::getline(file, line); ++number) {
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    const std::string token =
        line.substr(start, line.find_last_not_of(" \t\r") + 1 - start);
    std::uint64_t seed = 0;
    if (!cli::parse_number(token, seed))
      throw std::runtime_error("corpus '" + path + "' line " +
                               std::to_string(number) + ": '" + token +
                               "' is not an unsigned 64-bit seed");
    seeds.push_back(seed);
  }
  return seeds;
}

void append_corpus(const std::string& path, std::uint64_t seed) {
  const std::vector<std::uint64_t> existing = load_corpus(path);
  if (std::find(existing.begin(), existing.end(), seed) != existing.end())
    return;
  std::ofstream file(path, std::ios::app);
  if (!file) throw std::runtime_error("cannot write corpus '" + path + "'");
  file << seed << "\n";
}

}  // namespace whart::verify
