#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace wallbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(samples.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return samples[index];
}

double median(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 ? sorted[mid] : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

int tail_percentile(std::size_t n) {
  // Nearest rank k = ceil(p n / 100) leaves n - k samples beyond it;
  // n - k >= 10  <=>  p <= 100 (n - 10) / n.
  if (n < 20) return 50;
  const auto highest = static_cast<int>(
      std::floor(100.0 * static_cast<double>(n - 10) / static_cast<double>(n)));
  return std::clamp(highest, 50, 90);
}

Summary summarize(const std::vector<double>& samples) {
  Summary summary;
  summary.n = samples.size();
  summary.median = median(samples);
  summary.tail_pct = tail_percentile(samples.size());
  // Below 20 samples the tail is the median itself, not the lower of the
  // two middle samples nearest-rank would pick.
  summary.tail = summary.tail_pct == 50
                     ? summary.median
                     : percentile(samples, summary.tail_pct);
  return summary;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double kernel_efficiency(double updates, double block_update_seconds,
                         int workers, double wall_seconds) {
  return ratio(updates * block_update_seconds,
               static_cast<double>(workers) * wall_seconds);
}

double worker_share_max(const std::vector<std::size_t>& updates_per_worker) {
  const std::size_t total = std::accumulate(
      updates_per_worker.begin(), updates_per_worker.end(), std::size_t{0});
  if (total == 0) return 0.0;
  const std::size_t largest =
      *std::max_element(updates_per_worker.begin(), updates_per_worker.end());
  return static_cast<double>(largest) / static_cast<double>(total);
}

double trace_overhead(double traced_seconds_per_op,
                      double untraced_seconds_per_op) {
  return ratio(traced_seconds_per_op, untraced_seconds_per_op) - 1.0;
}

}  // namespace wallbench
