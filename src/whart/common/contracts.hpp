// Lightweight contract checking in the spirit of the C++ Core Guidelines
// (I.6 "Prefer Expects()", I.8 "Prefer Ensures()").  Violations throw, so
// library misuse is reported at the API boundary instead of corrupting state.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace whart {

/// Thrown when a precondition (argument contract) is violated.
class precondition_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when a postcondition or internal invariant is violated.
class invariant_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

/// Defined in common/obs.cpp: hands the failure to the flight recorder,
/// which dumps its last-N-events context (JSONL) to the configured
/// crash-dump path before the exception unwinds.  Best-effort and
/// noexcept — it can never mask the contract violation itself.
void notify_contract_failure(const char* what) noexcept;

[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          std::string_view message,
                                          const std::source_location& loc) {
  std::string what = std::string(kind) + " violated: (" + expr + ")";
  if (!message.empty()) what.append(" — ").append(message);
  what += " at ";
  what += loc.file_name();
  what += ':';
  what += std::to_string(loc.line());
  notify_contract_failure(what.c_str());
  if (kind[0] == 'p') throw precondition_error(what);
  throw invariant_error(what);
}

}  // namespace detail

/// Check a precondition; throws precondition_error on failure.  The
/// message is a view, so a passing check builds no string.
inline void expects(bool condition, const char* expr,
                    std::string_view message = {},
                    const std::source_location& loc =
                        std::source_location::current()) {
  if (!condition) detail::contract_failure("precondition", expr, message, loc);
}

/// Check a postcondition/invariant; throws invariant_error on failure.
inline void ensures(bool condition, const char* expr,
                    std::string_view message = {},
                    const std::source_location& loc =
                        std::source_location::current()) {
  if (!condition) detail::contract_failure("invariant", expr, message, loc);
}

}  // namespace whart

#define WHART_EXPECTS(cond) ::whart::expects((cond), #cond)
#define WHART_EXPECTS_MSG(cond, msg) ::whart::expects((cond), #cond, (msg))
#define WHART_ENSURES(cond) ::whart::ensures((cond), #cond)
#define WHART_ENSURES_MSG(cond, msg) ::whart::ensures((cond), #cond, (msg))
