#include "whart/markov/export.hpp"

#include <ostream>
#include <sstream>

namespace whart::markov {

namespace {

std::string escape_quotes(const std::string& text) {
  std::string escaped;
  for (char c : text) {
    if (c == '"') escaped += '\\';
    escaped += c;
  }
  return escaped;
}

std::string format_probability(double p) {
  std::ostringstream out;
  out << p;  // shortest round-trippable-ish rendering is fine here
  return out.str();
}

}  // namespace

void write_dot(std::ostream& out, const Dtmc& chain,
               const DotOptions& options) {
  out << "digraph " << options.name << " {\n";
  if (options.left_to_right) out << "  rankdir=LR;\n";
  out << "  node [shape=circle];\n";
  for (StateIndex s = 0; s < chain.num_states(); ++s) {
    out << "  s" << s << " [label=\""
        << escape_quotes(chain.state_name(s)) << "\"";
    if (options.highlight_absorbing && chain.is_absorbing(s))
      out << ", shape=doublecircle";
    out << "];\n";
  }
  for (StateIndex s = 0; s < chain.num_states(); ++s) {
    chain.matrix().for_each_in_row(s, [&](std::size_t to, double p) {
      if (p < options.min_probability) return;
      if (chain.is_absorbing(s) && to == s) return;  // skip self-loops
      out << "  s" << s << " -> s" << to << " [label=\""
          << format_probability(p) << "\"];\n";
    });
  }
  out << "}\n";
}

}  // namespace whart::markov
