#include "mtlscope/util/keyed_hash.hpp"

#include <chrono>
#include <random>

namespace mtlscope::util::detail {

std::uint64_t draw_hash_key() {
  try {
    std::random_device device;
    return (static_cast<std::uint64_t>(device()) << 32) | device();
  } catch (...) {  // no entropy source: the clock still varies per run
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
  }
}

}  // namespace mtlscope::util::detail
