#include "whart/link/channel_model.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "whart/common/contracts.hpp"
#include "whart/markov/steady_state.hpp"

namespace whart::link {

namespace {

constexpr double kRowTolerance = 1e-9;

std::vector<double> solve_stationary(std::size_t states,
                                     const std::vector<double>& transition) {
  if (states == 1) return {1.0};
  if (states == 2) {
    const double p01 = transition[1];
    const double p10 = transition[2];
    expects(p01 + p10 > 0.0, "channel chain must not be frozen in place");
    const double pi0 = p10 / (p01 + p10);
    return {pi0, 1.0 - pi0};
  }
  std::vector<linalg::Triplet> triplets;
  triplets.reserve(states * states);
  for (std::size_t r = 0; r < states; ++r)
    for (std::size_t c = 0; c < states; ++c)
      if (transition[r * states + c] != 0.0)
        triplets.push_back({r, c, transition[r * states + c]});
  const linalg::Vector pi =
      markov::steady_state_direct(markov::Dtmc(states, std::move(triplets)));
  std::vector<double> result(states);
  for (std::size_t s = 0; s < states; ++s) result[s] = pi[s];
  return result;
}

}  // namespace

ChannelModel::ChannelModel(std::size_t states,
                           std::vector<double> transition_row_major,
                           std::vector<double> error_rates)
    : states_(states),
      transition_(std::move(transition_row_major)),
      error_(std::move(error_rates)) {
  expects(states_ >= 1, "at least one channel state");
  expects(transition_.size() == states_ * states_,
          "transition matrix is k x k");
  expects(error_.size() == states_, "one error rate per state");
  for (double e : error_)
    expects(e >= 0.0 && e <= 1.0, "0 <= error rate <= 1");
  for (std::size_t r = 0; r < states_; ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < states_; ++c) {
      const double p = transition_[r * states_ + c];
      expects(p >= 0.0 && p <= 1.0, "0 <= transition probability <= 1");
      row += p;
    }
    expects(std::abs(row - 1.0) <= kRowTolerance,
            "channel transition rows must sum to 1");
  }
  stationary_ = solve_stationary(states_, transition_);
}

ChannelModel ChannelModel::iid(double success_probability) {
  expects(success_probability >= 0.0 && success_probability <= 1.0,
          "0 <= success probability <= 1");
  return ChannelModel(1, {1.0}, {1.0 - success_probability});
}

ChannelModel ChannelModel::gilbert_elliott(double p_good_to_bad,
                                           double p_bad_to_good,
                                           double error_good,
                                           double error_bad) {
  expects(p_good_to_bad >= 0.0 && p_good_to_bad <= 1.0, "0 <= p_gb <= 1");
  expects(p_bad_to_good >= 0.0 && p_bad_to_good <= 1.0, "0 <= p_bg <= 1");
  expects(p_good_to_bad + p_bad_to_good > 0.0,
          "channel chain must not be frozen in place");
  return ChannelModel(2,
                      {1.0 - p_good_to_bad, p_good_to_bad,  //
                       p_bad_to_good, 1.0 - p_bad_to_good},
                      {error_good, error_bad});
}

ChannelModel ChannelModel::chain(std::vector<double> transition_row_major,
                                 std::vector<double> error_rates) {
  const std::size_t states = error_rates.size();
  return ChannelModel(states, std::move(transition_row_major),
                      std::move(error_rates));
}

ChannelModel ChannelModel::from_link_model(const LinkModel& link) {
  return gilbert_elliott(link.failure_probability(),
                         link.recovery_probability(), 0.0, 1.0);
}

namespace {

constexpr std::size_t kMaxParsedStates = 64;

/// True when some state is reachable from every state of the k x k
/// chain — exactly when it has one closed class, hence one stationary
/// law.
bool has_unique_stationary_law(std::size_t k,
                               const std::vector<double>& transition) {
  std::vector<char> reach(k * k, 0);
  for (std::size_t r = 0; r < k; ++r) {
    reach[r * k + r] = 1;
    for (std::size_t c = 0; c < k; ++c)
      if (transition[r * k + c] > 0.0) reach[r * k + c] = 1;
  }
  for (std::size_t m = 0; m < k; ++m)
    for (std::size_t r = 0; r < k; ++r)
      if (reach[r * k + m] != 0)
        for (std::size_t c = 0; c < k; ++c)
          if (reach[m * k + c] != 0) reach[r * k + c] = 1;
  for (std::size_t c = 0; c < k; ++c) {
    bool from_all = true;
    for (std::size_t r = 0; r < k; ++r) from_all = from_all && reach[r * k + c];
    if (from_all) return true;
  }
  return false;
}

std::string format_value(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

}  // namespace

ChannelModel ChannelModel::parse(const std::string& spec) {
  const auto fail = [&spec](const std::string& problem) {
    return channel_spec_error("channel spec '" + spec + "': " + problem);
  };
  const auto check_probability = [&](const std::string& name, double p) {
    if (!(p >= 0.0 && p <= 1.0))
      throw fail(name + " = " + format_value(p) + " is outside [0, 1]");
  };
  if (spec == "iid") return iid();
  if (spec.starts_with("ge:")) {
    std::istringstream in(spec.substr(3));
    double v[4];
    char comma = ',';
    for (int i = 0; i < 4; ++i)
      if ((i > 0 && (!(in >> comma) || comma != ',')) || !(in >> v[i]))
        throw fail("expected four comma-separated numbers ge:pgb,pbg,eg,eb");
    char trailing = 0;
    if (in >> trailing) throw fail("trailing characters after eb");
    const char* names[4] = {"pgb", "pbg", "eg", "eb"};
    for (int i = 0; i < 4; ++i) check_probability(names[i], v[i]);
    if (v[0] + v[1] == 0.0)
      throw fail("pgb + pbg = 0 freezes the chain in place");
    return gilbert_elliott(v[0], v[1], v[2], v[3]);
  }
  if (spec.starts_with("chain:")) {
    const std::string path = spec.substr(6);
    std::ifstream file(path);
    if (!file) throw fail("cannot read '" + path + "'");
    // Strip '#' comments, then read k, k*k transitions, k error rates.
    std::stringstream tokens;
    std::string line;
    while (std::getline(file, line)) {
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      tokens << line << ' ';
    }
    std::size_t k = 0;
    if (!(tokens >> k) || k < 1 || k > kMaxParsedStates)
      throw fail("the file must start with the state count k in 1.." +
                 std::to_string(kMaxParsedStates));
    const std::string layout = "k = " + std::to_string(k) + ", then " +
                               std::to_string(k) + " rows of " +
                               std::to_string(k) +
                               " transition probabilities, then " +
                               std::to_string(k) + " error rates";
    std::vector<double> transition(k * k);
    std::vector<double> error(k);
    for (double& p : transition)
      if (!(tokens >> p)) throw fail("the file ends early: expected " + layout);
    for (double& e : error)
      if (!(tokens >> e)) throw fail("the file ends early: expected " + layout);
    std::string trailing;
    if (tokens >> trailing)
      throw fail("unexpected '" + trailing + "' after " + layout);
    for (std::size_t r = 0; r < k; ++r) {
      double row = 0.0;
      for (std::size_t c = 0; c < k; ++c) {
        check_probability("transition (" + std::to_string(r + 1) + ", " +
                              std::to_string(c + 1) + ")",
                          transition[r * k + c]);
        row += transition[r * k + c];
      }
      if (!(std::abs(row - 1.0) <= kRowTolerance))
        throw fail("transition row " + std::to_string(r + 1) + " sums to " +
                   format_value(row) + ", not 1");
    }
    for (std::size_t s = 0; s < k; ++s)
      check_probability("error rate " + std::to_string(s + 1), error[s]);
    if (!has_unique_stationary_law(k, transition))
      throw fail("the chain has more than one closed class, so no unique "
                 "stationary law");
    return chain(std::move(transition), std::move(error));
  }
  throw fail("expected iid, ge:pgb,pbg,eg,eb or chain:<file>");
}

double ChannelModel::marginal_success() const noexcept {
  double expected_error = 0.0;
  for (std::size_t s = 0; s < states_; ++s)
    expected_error += stationary_[s] * error_[s];
  return 1.0 - expected_error;
}

double ChannelModel::mean_sojourn_slots(std::size_t state) const {
  expects(state < states_, "state < k");
  const double stay = transition_[state * states_ + state];
  expects(stay < 1.0, "state must be leavable");
  return 1.0 / (1.0 - stay);
}

double ChannelModel::mean_bad_burst_length() const {
  expects(states_ == 2, "burst length is a Gilbert-Elliott notion (k = 2)");
  return mean_sojourn_slots(1);
}

ChannelModel ChannelModel::with_marginal_success(double availability) const {
  expects(availability >= 0.0 && availability <= 1.0,
          "0 <= availability <= 1");
  const double current_error = 1.0 - marginal_success();
  std::vector<double> error(states_);
  if (current_error <= 0.0) {
    // An error-free template carries burst structure in its transitions
    // only; give every state the uniform error that hits the target.
    for (double& e : error) e = 1.0 - availability;
  } else {
    const double scale = (1.0 - availability) / current_error;
    for (std::size_t s = 0; s < states_; ++s) {
      const double e = scale * error_[s];
      error[s] = e < 0.0 ? 0.0 : (e > 1.0 ? 1.0 : e);
    }
  }
  return ChannelModel(states_, transition_, std::move(error));
}

markov::Dtmc ChannelModel::to_dtmc() const {
  std::vector<linalg::Triplet> triplets;
  std::vector<std::string> names;
  triplets.reserve(states_ * states_);
  names.reserve(states_);
  for (std::size_t r = 0; r < states_; ++r) {
    names.push_back("C" + std::to_string(r));
    for (std::size_t c = 0; c < states_; ++c)
      if (transition_[r * states_ + c] != 0.0)
        triplets.push_back({r, c, transition_[r * states_ + c]});
  }
  return markov::Dtmc(states_, std::move(triplets), std::move(names));
}

std::string ChannelModel::to_string() const {
  std::ostringstream out;
  if (states_ == 1) {
    if (error_[0] == 0.0) return "iid";
    out << "iid(success=" << 1.0 - error_[0] << ")";
    return out.str();
  }
  if (states_ == 2) {
    out << "ge:" << transition_[1] << ',' << transition_[2] << ','
        << error_[0] << ',' << error_[1];
    return out.str();
  }
  out << "chain(" << states_ << ")[";
  for (std::size_t r = 0; r < states_; ++r) {
    if (r > 0) out << "; ";
    for (std::size_t c = 0; c < states_; ++c) {
      if (c > 0) out << ' ';
      out << transition_[r * states_ + c];
    }
  }
  out << " | e:";
  for (std::size_t s = 0; s < states_; ++s) out << ' ' << error_[s];
  out << ']';
  return out.str();
}

}  // namespace whart::link
