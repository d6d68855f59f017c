#include "host.hpp"

#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <thread>

namespace wallbench {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto begin = line.find_first_not_of(' ', colon + 1);
    return begin == std::string::npos ? "unknown" : line.substr(begin);
  }
  return "unknown";
}

unsigned cpu_count() { return std::thread::hardware_concurrency(); }

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  CpuTicks ticks;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return ticks;
  std::istringstream fields(line.substr(4));
  std::uint64_t value = 0;
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already counted in user, so only the first 8 sum.
  for (int i = 0; i < 8 && fields >> value; ++i) {
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_share(const CpuTicks& begin, const CpuTicks& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

namespace {
double cpu_seconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}
double max_rss_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}
}  // namespace

double cpu_seconds_self_and_children() {
  return cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN);
}

double peak_rss_mb() {
  return max_rss_mb(RUSAGE_SELF) + max_rss_mb(RUSAGE_CHILDREN);
}

}  // namespace wallbench
