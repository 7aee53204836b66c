#include "pw/dataflow/placement.hpp"

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace pw::dataflow {

std::string PlacementSpec::describe() const {
  return mode == Mode::kCore ? "core " + std::to_string(index) : "unpinned";
}

int placement_cores() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

bool apply_placement(const PlacementSpec& spec) noexcept {
  if (!spec.pinned()) {
    return true;  // nothing requested, trivially satisfied
  }
#if defined(__linux__)
  if (spec.index < 0) {
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(spec.index % placement_cores(), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  return false;  // unsupported: the stage runs unpinned
#endif
}

}  // namespace pw::dataflow
