// Sample statistics and the ratio metrics the benchmark reports.
#pragma once
#include <cstddef>
#include <vector>

namespace wallbench {

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

double median(const std::vector<double>& samples);
double mean(const std::vector<double>& samples);

/// The tail percentile a run of `n` samples can honestly report: the
/// highest percentile, capped at 90, that leaves at least 10 samples
/// strictly beyond its nearest-rank position. Below 20 samples no
/// percentile above the median qualifies and 50 is returned: the tail
/// then reads the median.
int tail_percentile(std::size_t n);

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail = 0.0;     // value at tail_pct
  int tail_pct = 50;
};
Summary summarize(const std::vector<double>& samples);

/// num / den, or 0 when den is 0 (a layer that did no work).
double ratio(double num, double den);

/// Share of the workers' combined kernel capacity an execution used:
/// updates x seconds-per-update / (workers x wall seconds).
double kernel_efficiency(double updates, double block_update_seconds,
                         int workers, double wall_seconds);

/// Largest per-worker share of the updates (1/p is perfectly balanced).
double worker_share_max(const std::vector<std::size_t>& updates_per_worker);

/// traced / untraced - 1: the relative cost of recording spans.
double trace_overhead(double traced_seconds_per_op,
                      double untraced_seconds_per_op);

}  // namespace wallbench
