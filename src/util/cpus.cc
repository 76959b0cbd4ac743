#include "util/cpus.h"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace gps {

unsigned UsableCpus() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return std::max(1, CPU_COUNT(&mask));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace gps
