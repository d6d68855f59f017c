// The benchmark's four seeded workloads.
//
//   sim-paper          the paper reproduction: Fig. 7-family random
//                      platforms, seven algorithms each, on the simulator;
//   online-q80-thread  execute_online(ODDOML) on worker threads, q = 80;
//   online-q16-tcp     the same path on loopback TCP, q = 16, workers
//                      forked per product;
//   service-mixed      a Daemon with a 3-worker thread fleet serving two
//                      closed-loop TcpClients a 7 small : 1 large mix.
//
// Each workload runs a fixed number of operations derived from the
// requested seconds and a committed nominal rate, so a faster program
// does the same work. An untraced run reports the end-to-end metrics; a
// traced run alternates untraced and traced operations and reports the
// per-layer metrics, the spans and the tracing overhead.
#pragma once
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace wallbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// A brief run of every code path (self-test), not a measurement.
  bool smoke = false;
};

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // the first few reasons
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;
  std::vector<SpanRecord> spans;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& reason);
};

const std::vector<std::string>& workload_names();

/// Runs one workload (a name from workload_names()).
Report run_workload(const RunConfig& config);

}  // namespace wallbench
