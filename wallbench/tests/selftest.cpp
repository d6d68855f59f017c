// Self-tests of the benchmark's own machinery: the tail-percentile
// rule, the ratio metrics, span self times, and the correctness gate
// (fed a corrupted product and a short simulated cell, it must fire).
//
// Run through `python3 wallbench/run.py --self-test`, or directly:
// .bench_build/wallbench/wallbench_selftest (exit 0 = all passed).
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gate.hpp"
#include "matrix/gemm.hpp"
#include "matrix/matrix.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace wallbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "FAIL: " << what << "\n";
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
         what + " (got " + std::to_string(got) + ", want " +
             std::to_string(want) + ")");
}

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

void test_percentile_rule() {
  expect(tail_percentile(0) == 50, "no samples: median");
  expect(tail_percentile(19) == 50, "19 samples: median");
  expect(tail_percentile(20) == 50, "20 samples: p50 leaves 10 beyond");
  expect(tail_percentile(50) == 80, "50 samples: p80");
  expect(tail_percentile(99) == 89, "99 samples: p89");
  expect(tail_percentile(100) == 90, "100 samples: p90");
  expect(tail_percentile(100000) == 90, "capped at p90");
  // The rule's promise: at least 10 samples strictly beyond the value.
  for (int n = 20; n <= 400; ++n) {
    const std::vector<double> samples = one_to(n);
    const double tail = percentile(samples, tail_percentile(n));
    int beyond = 0;
    for (const double value : samples) beyond += value > tail;
    expect(beyond >= 10, "10 beyond at n=" + std::to_string(n));
  }
  expect_near(percentile(one_to(100), 90), 90, "nearest-rank p90 of 1..100");
  expect_near(percentile(one_to(10), 50), 5, "nearest-rank p50 of 1..10");
  expect_near(median(one_to(4)), 2.5, "even median");
  const Summary summary = summarize(one_to(50));
  expect(summary.n == 50 && summary.tail_pct == 80 && summary.tail == 40,
         "summarize(1..50)");
}

void test_ratio_metrics() {
  expect_near(ratio(3, 0), 0, "ratio with zero base");
  expect_near(ratio(3, 4), 0.75, "ratio");
  // 1000 updates of 30 us on 3 workers in 20 ms: 0.03 / 0.06.
  expect_near(kernel_efficiency(1000, 30e-6, 3, 0.02), 0.5,
              "kernel efficiency");
  expect_near(worker_share_max({51200, 6400, 6400}), 0.8, "share max");
  expect_near(worker_share_max({10, 10, 10}), 1.0 / 3.0, "balanced share");
  expect_near(worker_share_max({0, 0}), 0, "no updates");
  expect_near(trace_overhead(1.1, 1.0), 0.1, "trace overhead");
}

SpanRecord span(int parent, std::int64_t start, std::int64_t end,
                const std::string& layer) {
  SpanRecord record;
  record.parent = parent;
  record.start_ns = start;
  record.end_ns = end;
  record.layer = layer;
  return record;
}

void test_self_times() {
  // root [0,100] with children [10,30] and [20,50] (overlapping: union
  // 40) and [90,120] (clipped to 10); grandchild [12,18] under child 1.
  const std::vector<SpanRecord> spans = {
      span(-1, 0, 100, "bench"), span(0, 10, 30, "sched"),
      span(0, 20, 50, "runtime"), span(0, 90, 120, "model"),
      span(1, 12, 18, "matrix")};
  const auto self = self_times_ns(spans);
  expect(self[0] == 100 - 40 - 10, "root self time");
  expect(self[1] == 20 - 6, "child self time minus grandchild");
  expect(self[2] == 30, "overlapping sibling keeps its own duration");
  expect(self[3] == 30, "a child's own self time is not clipped");
  expect(self[4] == 6, "leaf self time");
  const auto layers = layer_self_seconds(spans);
  expect_near(layers.at("bench"), 50e-9, "bench layer seconds");

  Tracer tracer(true);
  {
    Span outer(tracer, "outer", "bench", 7);
    Span inner(tracer, "inner", "core", 7);
  }
  const auto recorded = tracer.spans();
  expect(recorded.size() == 2 && recorded[1].parent == 0 &&
             recorded[0].parent == -1 && recorded[1].op_id == 7,
         "nested spans record their parent");
  expect(recorded[0].start_ns <= recorded[1].start_ns &&
             recorded[1].end_ns <= recorded[0].end_ns,
         "child interval inside parent");
  std::ostringstream json;
  write_chrome_trace(json, recorded);
  expect(json.str().find("\"ph\":\"X\"") != std::string::npos &&
             json.str().front() == '[',
         "chrome trace-event array");

  Tracer disabled(false);
  { Span ignored(disabled, "x", "bench"); }
  expect(disabled.spans().empty(), "a disabled tracer records nothing");
}

void test_gate_fires() {
  hmxp::util::Rng rng(5);
  const auto a = hmxp::matrix::Matrix::random(32, 24, rng);
  const auto b = hmxp::matrix::Matrix::random(24, 40, rng);
  hmxp::matrix::Matrix reference(32, 40);
  hmxp::matrix::gemm_naive(a.view(), b.view(), reference.view());
  hmxp::matrix::Matrix good(32, 40);
  hmxp::matrix::gemm_auto(a.view(), b.view(), good.view());
  expect(check_product(good, reference).empty(), "a correct product passes");

  hmxp::matrix::Matrix corrupted = good;
  corrupted.at(17, 3) += 1e-6;
  expect(!check_product(corrupted, reference).empty(),
         "a corrupted product fails the gate");
  corrupted.at(17, 3) = std::nan("");
  expect(!check_product(corrupted, reference).empty(), "NaN fails the gate");
  expect(!check_product(hmxp::matrix::Matrix(32, 39), reference).empty(),
         "a wrong shape fails the gate");

  const auto partition = hmxp::matrix::Partition::from_blocks(4, 5, 6, 8);
  expect(check_coverage(120, partition).empty(), "full coverage passes");
  expect(!check_coverage(119, partition).empty(), "a short cell fails");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_ratio_metrics();
  test_self_times();
  test_gate_fires();
  if (failures) {
    std::cerr << failures << " self-test check(s) failed\n";
    return 1;
  }
  std::cout << "wallbench self-test: all checks passed\n";
  return 0;
}
