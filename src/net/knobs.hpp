// Strict parsing of the PMPS_* runtime knobs (engine backend, fiber
// workers, guarded fiber stacks). An unset variable means "use the
// default". A set one must be one of the accepted values, or read_knob
// throws std::invalid_argument naming the variable, its value and what it
// accepts: an invalid configuration is rejected by name, never silently
// defaulted. The engine reads every knob before any PE runs.

#pragma once

#include <charconv>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pmps::net {

namespace detail {

[[noreturn]] inline void reject_knob(const char* name, std::string_view value,
                                     std::string_view accepted) {
  std::string what(name);
  what.append("=\"").append(value).append("\" is invalid: expected ");
  throw std::invalid_argument(what.append(accepted));
}

}  // namespace detail

/// Knob `name` as a whole decimal integer in [min, max]; nullopt if unset.
inline std::optional<long> read_knob(const char* name, long min, long max) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  const std::string_view text(env);
  long v = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (text.empty() || ec != std::errc() || end != last || v < min || v > max) {
    std::string accepted = "an integer in [";
    accepted.append(std::to_string(min)).append(", ");
    detail::reject_knob(name, text,
                        accepted.append(std::to_string(max)).append("]"));
  }
  return v;
}

/// Knob `name` as the index of its value in `words`; nullopt if unset.
inline std::optional<int> read_knob(const char* name,
                                    std::initializer_list<const char*> words) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  const std::string_view text(env);
  int i = 0;
  std::string accepted = "one of";
  for (const char* w : words) {
    if (text == w) return i;
    accepted.append(i++ == 0 ? " " : ", ").append(w);
  }
  detail::reject_knob(name, text, accepted);
}

}  // namespace pmps::net
