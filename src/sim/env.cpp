#include "sim/env.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace hwatch::sim {

std::optional<std::uint64_t> env_uint(const char* name, std::uint64_t lo,
                                      std::uint64_t hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  const char* end = raw + std::strlen(raw);
  std::uint64_t v = 0;
  const auto [stop, ec] = std::from_chars(raw, end, v);  // no sign or space
  if (ec != std::errc() || stop != end || v < lo || v > hi) {
    throw std::invalid_argument(
        std::string(name) + "=\"" + raw + "\": expected " +
        (lo > 0 ? "a positive" : "an") + " integer in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

bool env_flag(const char* name) { return env_uint(name, 0, 1) == 1; }

}  // namespace hwatch::sim
