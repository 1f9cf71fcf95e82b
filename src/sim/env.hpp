#pragma once

#include <cstdint>
#include <optional>

namespace hwatch::sim {

/// Reads environment variable `name` as an unsigned decimal in [lo, hi];
/// unset or empty gives std::nullopt.  Anything else (a sign, spaces,
/// other characters, out of range) throws std::invalid_argument naming
/// the variable, its value and the range: no silent fallback default.
std::optional<std::uint64_t> env_uint(const char* name, std::uint64_t lo,
                                      std::uint64_t hi);

/// Reads environment variable `name` as an on/off switch: unset, "" or
/// "0" is off and "1" is on.  Anything else throws std::invalid_argument
/// naming the variable, as env_uint(name, 0, 1) does.
bool env_flag(const char* name);

}  // namespace hwatch::sim
