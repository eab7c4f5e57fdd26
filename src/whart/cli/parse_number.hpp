// Whole-token numeric values, shared by whart_cli, whart_verify and
// the verify corpus reader.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace whart::cli {

/// A whole-token number of the target's own type: std::from_chars must
/// read all of `text` — no sign on an unsigned type, no trailing
/// characters, no value outside the type's range.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  return !text.empty() && error == std::errc() && stop == end;
}

}  // namespace whart::cli
