#include "whart/hart/link_probability.hpp"

#include "whart/common/contracts.hpp"

namespace whart::hart {

SteadyStateLinks::SteadyStateLinks(std::vector<link::LinkModel> links) {
  expects(!links.empty(), "at least one link");
  availability_.reserve(links.size());
  for (const link::LinkModel& l : links)
    availability_.push_back(l.steady_state_availability());
}

SteadyStateLinks::SteadyStateLinks(std::vector<double> availabilities)
    : availability_(std::move(availabilities)) {
  expects(!availability_.empty(), "at least one link");
  for (double a : availability_)
    expects(a >= 0.0 && a <= 1.0, "0 <= availability <= 1");
}

SteadyStateLinks::SteadyStateLinks(std::size_t hops, link::LinkModel model)
    : SteadyStateLinks(
          std::vector<double>(hops, model.steady_state_availability())) {}

double SteadyStateLinks::up_probability(std::size_t hop,
                                        std::uint64_t) const {
  expects(hop < availability_.size(), "hop in range");
  return availability_[hop];
}

std::size_t SteadyStateLinks::hop_count() const {
  return availability_.size();
}

ChannelLinks::ChannelLinks(std::vector<link::ChannelModel> channels)
    : channels_(std::move(channels)), hops_(channels_.size()) {
  expects(!channels_.empty(), "at least one link");
  marginal_.reserve(channels_.size());
  for (const link::ChannelModel& c : channels_)
    marginal_.push_back(c.marginal_success());
}

ChannelLinks::ChannelLinks(std::size_t hops, link::ChannelModel channel)
    : marginal_{channel.marginal_success()}, hops_(hops) {
  expects(hops > 0, "at least one link");
  channels_.push_back(std::move(channel));
}

double ChannelLinks::up_probability(std::size_t hop, std::uint64_t) const {
  expects(hop < hops_, "hop in range");
  return marginal_[channels_.size() == 1 ? 0 : hop];
}

std::size_t ChannelLinks::hop_count() const { return hops_; }

const link::ChannelModel* ChannelLinks::channel_model(std::size_t hop) const {
  expects(hop < hops_, "hop in range");
  return &channels_[channels_.size() == 1 ? 0 : hop];
}

TransientLinks::TransientLinks(std::vector<link::LinkModel> links,
                               std::vector<double> initial_up)
    : links_(std::move(links)), initial_up_(std::move(initial_up)) {
  expects(!links_.empty(), "at least one link");
  expects(links_.size() == initial_up_.size(),
          "one initial UP probability per link");
  for (double p : initial_up_)
    expects(p >= 0.0 && p <= 1.0, "0 <= initial up probability <= 1");
}

double TransientLinks::up_probability(std::size_t hop,
                                      std::uint64_t absolute_slot) const {
  expects(hop < links_.size(), "hop in range");
  return links_[hop].up_probability_after(initial_up_[hop], absolute_slot);
}

std::size_t TransientLinks::hop_count() const { return links_.size(); }

ScriptedLinks::ScriptedLinks(std::vector<link::ScriptedLink> links)
    : links_(std::move(links)) {
  expects(!links_.empty(), "at least one link");
}

namespace {

std::vector<link::ScriptedLink> make_scripted(
    std::vector<link::LinkModel> links, std::size_t failed_hop,
    std::vector<link::FailureWindow> windows) {
  expects(failed_hop < links.size(), "failed hop in range");
  std::vector<link::ScriptedLink> scripted;
  scripted.reserve(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    scripted.emplace_back(links[i],
                          i == failed_hop
                              ? windows
                              : std::vector<link::FailureWindow>{});
  }
  return scripted;
}

}  // namespace

ScriptedLinks::ScriptedLinks(std::vector<link::LinkModel> links,
                             std::size_t failed_hop,
                             std::vector<link::FailureWindow> windows)
    : ScriptedLinks(make_scripted(std::move(links), failed_hop,
                                  std::move(windows))) {}

double ScriptedLinks::up_probability(std::size_t hop,
                                     std::uint64_t absolute_slot) const {
  expects(hop < links_.size(), "hop in range");
  return links_[hop].up_probability(absolute_slot);
}

std::size_t ScriptedLinks::hop_count() const { return links_.size(); }

}  // namespace whart::hart
