#include "api/cli.hpp"

#include <iostream>
#include <stdexcept>

namespace hwatch::api {

int guarded_main(int (*body)()) {
  try {
    return body();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace hwatch::api
