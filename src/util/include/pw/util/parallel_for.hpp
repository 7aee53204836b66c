#pragma once

#include <cstddef>
#include <future>
#include <vector>

#include "pw/util/thread_pool.hpp"

namespace pw::util {

/// Splits [begin, end) into `parts` roughly equal contiguous ranges (0: one
/// per pool worker) and invokes `body(range_begin, range_end)` on the pool.
/// Blocks until all ranges complete; the first exception a range throws is
/// rethrown once every range has finished. Degenerates to a direct call
/// when the range is tiny or there is a single part.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  Body&& body, std::size_t min_grain = 1,
                  std::size_t parts = 0) {
  if (begin >= end) {
    return;
  }
  const std::size_t total = end - begin;
  if (parts == 0) {
    parts = pool.size();
  }
  if (parts <= 1 || total <= min_grain) {
    body(begin, end);
    return;
  }
  parts = std::min(parts, (total + min_grain - 1) / min_grain);
  const std::size_t chunk = (total + parts - 1) / parts;

  std::vector<std::future<void>> futures;
  futures.reserve(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t lo = begin + p * chunk;
    if (lo >= end) {
      break;
    }
    const std::size_t hi = std::min(end, lo + chunk);
    futures.push_back(pool.submit([&body, lo, hi] { body(lo, hi); }));
  }
  wait_all(futures);
}

}  // namespace pw::util
