// Host facts and process-resource readings for the result stamp.
#pragma once
#include <cstdint>
#include <string>

namespace wallbench {

/// "model name" from /proc/cpuinfo, or "unknown".
std::string cpu_model();
unsigned cpu_count();

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks read_cpu_ticks();
/// Share of all CPU time between two readings that the hypervisor
/// stole (0 when /proc/stat is unavailable).
double steal_share(const CpuTicks& begin, const CpuTicks& end);

/// User plus system CPU seconds of this process and of its reaped
/// children (forked workers).
double cpu_seconds_self_and_children();

/// Peak resident set of this process plus the largest reaped child's,
/// in MiB.
double peak_rss_mb();

}  // namespace wallbench
