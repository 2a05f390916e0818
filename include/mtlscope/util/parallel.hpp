// Fork-join over index ranges: the one threading primitive shared by the
// executor's sharded phases and the trace generator's unit workers.
#pragma once

#include <cstddef>
#include <thread>
#include <vector>

namespace mtlscope::util {

/// Runs fn(shard, begin, end) over K contiguous, balanced ranges of [0, n).
/// K == 1 stays inline on the caller's thread (the exact serial path).
template <typename Fn>
void parallel_ranges(std::size_t n, std::size_t k, const Fn& fn) {
  if (k <= 1) {
    fn(std::size_t{0}, std::size_t{0}, n);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(k);
  for (std::size_t t = 0; t < k; ++t) {
    const std::size_t begin = n * t / k;
    const std::size_t end = n * (t + 1) / k;
    workers.emplace_back([&fn, t, begin, end] { fn(t, begin, end); });
  }
  for (auto& worker : workers) worker.join();
}

}  // namespace mtlscope::util
