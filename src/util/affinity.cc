#include "util/affinity.h"

#include <cstring>
#include <string>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace gps {

#if defined(__linux__)

std::vector<int> AvailableCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  return cpus;
}

Status PinThreadToCpu(std::thread& thread, int cpu) {
  if (cpu < 0 || cpu >= CPU_SETSIZE) {
    return Status::InvalidArgument("cpu id " + std::to_string(cpu) +
                                   " out of range for the affinity mask");
  }
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  const int rc =
      pthread_setaffinity_np(thread.native_handle(), sizeof(mask), &mask);
  if (rc != 0) {
    return Status::FailedPrecondition(
        "sched_setaffinity to cpu " + std::to_string(cpu) +
        " failed: " + std::strerror(rc) +
        " (affinity syscalls are often denied in containers)");
  }
  return Status::Ok();
}

#else  // !defined(__linux__)

std::vector<int> AvailableCpus() { return {}; }

Status PinThreadToCpu(std::thread&, int) {
  return Status::FailedPrecondition(
      "sched_setaffinity is unavailable on this platform");
}

#endif

}  // namespace gps
