#ifndef PERFBENCH_PROC_STATS_H_
#define PERFBENCH_PROC_STATS_H_

// Process counters read from outside the library: getrusage for the
// benchmark process, /proc/<pid>/{stat,status} for its worker processes.

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

struct CpuSample {
  double user_ms = 0.0;
  double sys_ms = 0.0;
  /// Voluntary context switches: the process blocked, i.e. woke up later.
  std::uint64_t voluntary_ctx = 0;
  std::uint64_t involuntary_ctx = 0;
};

/// The benchmark process (all of its threads).
CpuSample SelfCpu();

/// Another process of ours; false when it cannot be read (exited).
bool PidCpu(pid_t pid, CpuSample* out);

/// Peak resident set (VmHWM) in MiB; `pid` 0 = this process. 0 when
/// unreadable.
double PeakRssMb(pid_t pid);

/// Machine-wide CPU time stolen by the hypervisor, and all CPU time, in
/// clock ticks since boot (/proc/stat). Their deltas over a window give
/// the share of the machine's CPU other tenants took during it.
struct MachineTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
MachineTicks ReadMachineTicks();

/// Sum of the sizes of the regular files directly under `dir`.
std::uint64_t DirBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_STATS_H_
