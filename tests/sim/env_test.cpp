#include "sim/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace hwatch::sim {
namespace {

TEST(EnvFlag, AcceptsOnlyZeroOrOne) {
  ::unsetenv("HWATCH_PROGRESS");
  EXPECT_FALSE(env_flag("HWATCH_PROGRESS"));
  ::setenv("HWATCH_PROGRESS", "", 1);
  EXPECT_FALSE(env_flag("HWATCH_PROGRESS"));
  ::setenv("HWATCH_PROGRESS", "0", 1);
  EXPECT_FALSE(env_flag("HWATCH_PROGRESS"));
  ::setenv("HWATCH_PROGRESS", "1", 1);
  EXPECT_TRUE(env_flag("HWATCH_PROGRESS"));
  for (const char* bad : {"false", "off", "2", " 1"}) {
    ::setenv("HWATCH_PROGRESS", bad, 1);
    try {
      env_flag("HWATCH_PROGRESS");
      ADD_FAILURE() << "expected std::invalid_argument for \"" << bad << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("HWATCH_PROGRESS=\"") + bad +
                    "\": expected an integer in [0, 1]");
    }
  }
  ::unsetenv("HWATCH_PROGRESS");
}

}  // namespace
}  // namespace hwatch::sim
