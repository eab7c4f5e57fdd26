// DTMC export: Graphviz DOT for visual inspection of the constructed
// chains (the paper's Figs. 4-5).
#pragma once

#include <iosfwd>
#include <string>

#include "whart/markov/dtmc.hpp"

namespace whart::markov {

/// Options for the DOT rendering.
struct DotOptions {
  /// Graph name.
  std::string name = "dtmc";
  /// Left-to-right layout (matches the paper's Figs. 4-5).
  bool left_to_right = true;
  /// Draw absorbing states as double circles.
  bool highlight_absorbing = true;
  /// Omit edge labels below this probability... 0 keeps everything.
  double min_probability = 0.0;
};

/// Write the chain as a Graphviz digraph.
void write_dot(std::ostream& out, const Dtmc& chain,
               const DotOptions& options = {});

}  // namespace whart::markov
