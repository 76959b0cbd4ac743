// The CPUs this process may run on.

#ifndef GPS_UTIL_CPUS_H_
#define GPS_UTIL_CPUS_H_

namespace gps {

/// CPUs the calling thread may run on: the size of its affinity mask
/// (sched_getaffinity), or std::thread::hardware_concurrency() where that
/// cannot be read; at least 1. hardware_concurrency() alone counts every
/// CPU of the host, also under `taskset -c 0`.
unsigned UsableCpus();

}  // namespace gps

#endif  // GPS_UTIL_CPUS_H_
