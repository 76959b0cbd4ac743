// Thin, failure-tolerant wrapper over the platform's CPU-affinity
// syscalls, for the engine's core-pinning mode (--pin): pin shard worker
// threads to distinct cores so they stop migrating between ingest bursts.
//
// Everything here is best-effort by design. Containers routinely deny
// sched_setaffinity (seccomp), cgroup masks shrink the visible CPU set,
// and non-Linux hosts have no affinity syscall at all — so every entry
// point degrades to a named Status / empty result instead of failing the
// run. Pinning is a placement hint, never a correctness
// requirement: by the engine's determinism contract, results are
// byte-identical with pinning on, off, or silently unavailable.

#ifndef GPS_UTIL_AFFINITY_H_
#define GPS_UTIL_AFFINITY_H_

#include <thread>
#include <vector>

#include "util/status.h"

namespace gps {

/// CPU ids this process may run on (the sched_getaffinity mask), in
/// ascending order. Empty when the mask cannot be read (non-Linux, or a
/// denied syscall) — callers treat empty as "pinning unavailable".
std::vector<int> AvailableCpus();

/// Pins `thread` to the single CPU `cpu`. FailedPrecondition names the
/// platform or errno when the affinity syscall is unavailable or denied
/// (unprivileged containers); the thread keeps its inherited mask then.
Status PinThreadToCpu(std::thread& thread, int cpu);

}  // namespace gps

#endif  // GPS_UTIL_AFFINITY_H_
