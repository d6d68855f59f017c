#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/algorithms.hpp"
#include "core/run.hpp"
#include "gate.hpp"
#include "host.hpp"
#include "matrix/gemm.hpp"
#include "matrix/kernel_dispatch.hpp"
#include "matrix/partition.hpp"
#include "matrix/tuning.hpp"
#include "model/steady_state.hpp"
#include "platform/generator.hpp"
#include "platform/platform.hpp"
#include "runtime/executor.hpp"
#include "runtime/fleet.hpp"
#include "sched/registry.hpp"
#include "service/admission.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace wallbench {

namespace hm = hmxp;
using hm::matrix::Matrix;
using hm::matrix::Partition;
using hm::platform::Platform;

namespace {

// ---- committed workload constants --------------------------------------
//
// Platform constants were measured once on the reference host (4-vCPU
// Intel Xeon, AVX-512, Release build): w is the median gemm_auto time of
// one q x q block update, c the master-side wall time per block moved on
// the workload's transport. They are fixed here so the scheduler sees
// the same inputs on every run, whatever the host does that minute.
constexpr double kW80 = 37e-6;   // s per q=80 block update
constexpr double kC80 = 4e-6;    // s per q=80 block, thread transport
constexpr double kW16 = 0.57e-6; // s per q=16 block update
constexpr double kC16 = 2e-6;    // s per q=16 block, loopback TCP
constexpr int kBuffers = 40;     // m_i, block buffers per worker
constexpr int kWorkers = 3;

// Nominal operations per second on the reference host: the run's fixed
// operation count is seconds x rate (so a faster program does the same
// work and finishes sooner).
constexpr double kSimInstancesPerSecond = 1.6;
constexpr double kQ80ProductsPerSecond = 25.0;
constexpr double kQ16ProductsPerSecond = 25.0;
constexpr double kServiceCyclesPerSecond = 25.0;  // per client, 8 jobs each

// sim-paper: the paper's A (100 x 100 blocks of q = 80), B width s = 400.
constexpr std::size_t kSimR = 100, kSimT = 100, kSimS = 400, kSimQ = 80;

// service-mixed: a cycle of 7 small jobs and 1 large job per client.
constexpr std::size_t kSmallN = 96, kLargeN = 256, kServiceQ = 16;
constexpr int kCycleLength = 8;
constexpr int kClients = 2;
constexpr std::size_t kServicePayloadDoubles = 64 * 1024;
// The daemon's fleet is priced compute-bound (c = w / 10). Admission
// scales each w by the worker's observed drift; compute-bound, a job's
// steady-state working set stays within m = 40 buffers until one
// worker's drift exceeds another's ~32x, whereas a port-bound price
// (c > w) overcommits m at drift ratios a shared host produces.
constexpr double kServiceC = 1e-4;
constexpr double kServiceW = 1e-3;

const std::vector<std::string> kLayers = {"bench", "core",    "sched",
                                          "sim",   "model",   "matrix",
                                          "runtime", "service"};
const std::vector<std::string> kSelectionAlgorithms = {"Het", "HomI", "Hom"};
/// Paper algorithms whose builder runs no selection phase: their cells
/// measure the simulation engine alone.
const std::vector<std::string> kEngineOnlyAlgorithms = {"BMM", "ODDOML",
                                                        "OMMOML", "ORROML"};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::size_t op_count(const RunConfig& config, double rate, std::size_t floor) {
  const double ops = std::ceil(config.seconds * rate);
  return std::max(floor, static_cast<std::size_t>(ops));
}

/// Whether operation `k` still runs. The count is fixed, but a host far
/// slower than the reference one stops early (counting fewer operations)
/// once 1.5 x the requested seconds have passed, instead of overrunning
/// the run. A traced run alternates untraced and traced operations and
/// only stops between pairs, so both halves stay equal.
bool keep_going(const RunConfig& config, std::size_t k, std::size_t ops,
                Clock::time_point start) {
  if (k >= ops) return false;
  if (config.trace && k % 2 == 1) return true;
  return seconds_since(start) < 1.5 * config.seconds;
}

/// The tracer of every untraced operation.
Tracer& untraced() {
  static Tracer off(false);
  return off;
}

/// Runs `setup` `reps` times and reports the median CPU seconds it cost
/// (this process, its threads and reaped children) as `setup_s`, and the
/// median wall seconds as `setup_wall_s`. CPU time is the gated figure:
/// it shows work moved into set-up, and unlike wall time it does not
/// count the time a shared host spends stealing the CPU or waiting.
void measure_setup(Report& report, int reps,
                   const std::function<void()>& setup) {
  std::vector<double> wall, cpu;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    const double cpu_start = cpu_seconds_self_and_children();
    setup();
    cpu.push_back(cpu_seconds_self_and_children() - cpu_start);
    wall.push_back(seconds_since(start));
  }
  report.set("setup_s", median(cpu), "s");
  report.set("setup_wall_s", median(wall), "s");
}

/// Median wall time of one q x q gemm_auto block update, over `calls`
/// calls after a warm-up.
double probe_block_update_seconds(Tracer& tracer, std::size_t q,
                                  std::uint64_t seed, int calls) {
  hm::util::Rng rng(seed);
  const Matrix a = Matrix::random(q, q, rng);
  const Matrix b = Matrix::random(q, q, rng);
  Matrix c(q, q);
  hm::matrix::gemm_auto(a.view(), b.view(), c.view());
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(calls));
  Span span(tracer, "matrix.gemm_auto probes", "matrix");
  for (int i = 0; i < calls; ++i) {
    const auto start = Clock::now();
    hm::matrix::gemm_auto(a.view(), b.view(), c.view());
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

void set_block_update(Report& report, Tracer& tracer, std::size_t q,
                      std::uint64_t seed, int calls) {
  const double seconds = probe_block_update_seconds(tracer, q, seed, calls);
  report.set("matrix.block_update_us", seconds * 1e6, "us");
  report.set("matrix.block_update_gflops",
             ratio(hm::matrix::gemm_flops(q, q, q), seconds) * 1e-9,
             "GFLOP/s");
}

/// Median wall time of solve_lp over the platform's steady workers.
double probe_lp_seconds(Tracer& tracer, const Platform& platform, int calls) {
  const auto workers = platform.steady_workers();
  std::vector<double> samples;
  Span span(tracer, "model.solve_lp probes", "model");
  for (int i = 0; i < calls; ++i) {
    const auto start = Clock::now();
    const auto solution = hm::model::solve_lp(workers);
    samples.push_back(seconds_since(start));
    if (!(solution.throughput > 0.0))
      throw std::runtime_error("solve_lp returned no throughput");
  }
  return median(samples);
}

/// Median wall time of constructing and shutting down a Fleet.
double probe_spawn_seconds(Tracer& tracer, const Platform& platform,
                           hm::runtime::TransportKind kind,
                           std::size_t max_payload_doubles, int reps) {
  hm::runtime::ExecutorOptions options;
  options.transport = kind;
  options.verify = false;
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    Span span(tracer, "runtime.Fleet spawn+shutdown", "runtime");
    const auto start = Clock::now();
    hm::runtime::Fleet fleet(platform, options, max_payload_doubles);
    fleet.shutdown();
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

/// Per-layer self time per traced operation, from the spans with
/// indices in [first, last): those the traced operations recorded.
void set_self_times(Report& report, const std::vector<SpanRecord>& spans,
                    std::size_t first, std::size_t last, std::size_t ops) {
  const auto by_layer = layer_self_seconds(spans, first, last);
  for (const std::string& layer : kLayers) {
    const auto it = by_layer.find(layer);
    const double seconds = it == by_layer.end() ? 0.0 : it->second;
    report.set("self_ms." + layer,
               ratio(seconds, static_cast<double>(ops)) * 1e3, "ms");
  }
}

void set_latency(Report& report, const std::string& prefix,
                 const std::vector<double>& samples) {
  const Summary summary = summarize(samples);
  report.set(prefix + "_p50", summary.median, "s");
  report.set(prefix + "_p90", summary.tail, "s");
  report.info[prefix + "_p90.percentile"] = std::to_string(summary.tail_pct);
  report.info[prefix + ".samples"] = std::to_string(summary.n);
}

/// The workload-independent end-to-end names, over the workload's own
/// operation: its CPU cost (the gated figure: stolen time and waiting do
/// not count), its throughput and its latency distribution.
void set_generic(Report& report, double throughput,
                 const std::vector<double>& latencies,
                 double cpu_seconds_per_op) {
  const Summary summary = summarize(latencies);
  report.set("cpu_s_per_op", cpu_seconds_per_op, "s");
  report.set("throughput_per_s", throughput, "1/s");
  report.set("latency_s_p50", summary.median, "s");
  report.set("latency_s_tail", summary.tail, "s");
  report.set("latency_s_p10", percentile(latencies, 10), "s");
  report.info["latency_s_tail.percentile"] = std::to_string(summary.tail_pct);
  report.info["latency.samples"] = std::to_string(summary.n);
}

void set_kernel_info(Report& report) {
  report.info["kernel_variant"] = hm::matrix::packed_kernel_variant();
  report.info["kernel_blocking"] =
      hm::matrix::blocking_to_string(hm::matrix::active_blocking());
}

// ---- sim-paper ----------------------------------------------------------

struct SimPass {
  std::size_t instances = 0;
  double seconds = 0.0;  // summed instance wall time
  double cpu_seconds = 0.0;
  std::vector<double> instance_seconds;
  std::map<std::string, std::vector<double>> cell_seconds;  // minus selection
  std::map<std::string, std::vector<double>> select_seconds;
  std::vector<double> het_bound_over_achieved;
  double decisions = 0.0;
  std::size_t cells = 0;
  double engine_decisions = 0.0;
  double engine_seconds = 0.0;
};

Report run_sim_paper(const RunConfig& config) {
  Report report;
  Tracer tracer(config.trace);
  const Partition partition =
      Partition::from_blocks(kSimR, kSimT, kSimS, kSimQ);
  // A traced run simulates every instance twice, untraced then traced.
  const std::size_t count = op_count(config, kSimInstancesPerSecond, 2);
  const std::size_t instances = config.trace ? (count + 1) / 2 : count;
  const std::size_t ops = config.trace ? 2 * instances : instances;

  std::vector<Platform> platforms;
  std::vector<std::string> algorithms;
  auto setup = [&] {
    hm::util::Rng rng(config.seed);
    platforms.clear();
    for (std::size_t i = 0; i < instances; ++i) {
      hm::util::Rng child = rng.fork();
      platforms.push_back(hm::platform::random_platform(child, 8));
    }
    algorithms = hm::core::paper_algorithms();
    // Warm-up: every paper algorithm once on Fig. 7's deterministic
    // ratio-2 platform at the timed size, so allocators, code paths and
    // the registry are warm before the first timed cell. A full,
    // seed-independent instance also gives set-up enough work to time
    // steadily.
    const Platform warm_platform = hm::platform::fully_hetero(2.0);
    for (const std::string& algorithm : algorithms) {
      Span span(tracer, "core.run_algorithm warm-up " + algorithm, "sim");
      const auto warm =
          hm::core::run_algorithm(algorithm, warm_platform, partition);
      const std::string coverage =
          check_coverage(warm.result.updates, partition);
      if (!coverage.empty())
        throw std::runtime_error("warm-up " + algorithm + ": " + coverage);
    }
  };
  measure_setup(report, config.smoke ? 1 : 3, setup);

  // passes[0] collects untraced instances, passes[1] traced ones.
  std::array<SimPass, 2> passes;
  const std::size_t first_span = tracer.spans().size();
  const auto start = Clock::now();
  for (std::size_t k = 0; keep_going(config, k, ops, start); ++k) {
    const bool traced = config.trace && k % 2 == 1;
    const std::size_t i = config.trace ? k / 2 : k;
    Tracer& op_tracer = traced ? tracer : untraced();
    SimPass& pass = passes[traced];
    Span instance(op_tracer, "bench.instance", "bench", i);
    const auto instance_start = Clock::now();
    const double cpu_start = cpu_seconds_self_and_children();
    double het_ratio = 0.0;
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      const std::string& algorithm = algorithms[a];
      hm::core::RunReport cell;
      const auto cell_start = Clock::now();
      double cell_wall = 0.0;
      {
        Span span(op_tracer, "core.run_algorithm " + algorithm, "sim",
                  i * algorithms.size() + a);
        cell = hm::core::run_algorithm(algorithm, platforms[i], partition);
        cell_wall = seconds_since(cell_start);
        op_tracer.add_derived(span.index(), "sched.select " + algorithm,
                              "sched", cell_start,
                              cell.selection_wall_seconds);
      }
      ++report.attempted;
      const std::string coverage =
          check_coverage(cell.result.updates, partition);
      if (!coverage.empty()) report.fail(algorithm + ": " + coverage);
      if (!(cell.bound_over_achieved >= 1.0 - 1e-9))
        report.fail(algorithm + ": bound/achieved below 1");
      const double sim_seconds = cell_wall - cell.selection_wall_seconds;
      pass.cell_seconds[algorithm].push_back(sim_seconds);
      pass.select_seconds[algorithm].push_back(cell.selection_wall_seconds);
      pass.decisions += static_cast<double>(cell.result.decisions);
      ++pass.cells;
      if (std::find(kEngineOnlyAlgorithms.begin(), kEngineOnlyAlgorithms.end(),
                    algorithm) != kEngineOnlyAlgorithms.end()) {
        pass.engine_decisions += static_cast<double>(cell.result.decisions);
        pass.engine_seconds += sim_seconds;
      }
      if (algorithm == "Het") het_ratio = cell.bound_over_achieved;
    }
    const double seconds = seconds_since(instance_start);
    pass.instance_seconds.push_back(seconds);
    pass.seconds += seconds;
    pass.cpu_seconds += cpu_seconds_self_and_children() - cpu_start;
    pass.het_bound_over_achieved.push_back(het_ratio);
    ++pass.instances;
  }
  const std::size_t last_span = tracer.spans().size();

  const SimPass& main = passes[config.trace];
  const double rate = ratio(static_cast<double>(main.instances), main.seconds);
  report.set("sim_instances_per_s", rate, "1/s");
  report.set("het_bound_over_achieved", mean(main.het_bound_over_achieved),
             "ratio");
  set_generic(report, rate, main.instance_seconds,
              ratio(main.cpu_seconds, static_cast<double>(main.instances)));
  if (!config.trace) return report;

  const SimPass& traced = passes[1];
  report.set("bench.trace_overhead",
             trace_overhead(ratio(traced.seconds, traced.instances),
                            ratio(passes[0].seconds, passes[0].instances)),
             "ratio");
  double build_seconds = 0.0;
  for (const auto& [algorithm, samples] : traced.select_seconds)
    build_seconds += std::accumulate(samples.begin(), samples.end(), 0.0);
  report.set("sched.build_ms",
             ratio(build_seconds, static_cast<double>(traced.cells)) * 1e3,
             "ms");
  report.set("sched.decisions_per_product",
             ratio(traced.decisions, static_cast<double>(traced.cells)),
             "count");
  for (const std::string& algorithm : kSelectionAlgorithms)
    report.set("sched.select_ms." + algorithm,
               mean(traced.select_seconds.at(algorithm)) * 1e3, "ms");
  for (const auto& [algorithm, samples] : traced.cell_seconds)
    report.set("sim.cell_ms." + algorithm, mean(samples) * 1e3, "ms");
  report.set("sim.engine_decisions_per_s",
             ratio(traced.engine_decisions, traced.engine_seconds), "1/s");

  std::vector<double> lp_samples;
  for (std::size_t i = 0; i < traced.instances; ++i)
    lp_samples.push_back(probe_lp_seconds(tracer, platforms[i], 20));
  report.set("model.lp_solve_us", median(lp_samples) * 1e6, "us");
  report.spans = tracer.spans();
  set_self_times(report, report.spans, first_span, last_span,
                 traced.instances);
  return report;
}

// ---- online-q80-thread / online-q16-tcp ---------------------------------

struct OnlineSpec {
  hm::runtime::TransportKind transport;
  std::size_t n;
  std::size_t q;
  double c;
  double w;
  double rate;  // nominal products per second
};

struct OnlinePass {
  std::size_t products = 0;
  double seconds = 0.0;          // summed product wall time
  double execute_seconds = 0.0;  // summed execute_online wall time
  double updates = 0.0;
  double comm_blocks = 0.0;
  double decisions = 0.0;
  double messages = 0.0;
  double wire_bytes = 0.0;
  double serde_seconds = 0.0;
  double pool_allocations = 0.0;
  double cpu_seconds = 0.0;
  std::vector<double> product_seconds;
  std::vector<double> execute_samples;
  std::vector<double> build_samples;
  std::vector<double> share_max;
};

Report run_online(const RunConfig& config, const OnlineSpec& spec) {
  Report report;
  Tracer tracer(config.trace);
  const Platform platform =
      Platform::homogeneous(kWorkers, spec.c, spec.w, kBuffers);
  const Partition partition(spec.n, spec.n, spec.n, spec.q);
  const std::size_t ops = op_count(config, spec.rate, 4);
  hm::runtime::ExecutorOptions options;
  options.transport = spec.transport;
  options.verify = false;  // the gate checks every product itself

  hm::core::OperandSet operands;
  std::vector<double> operand_seconds;
  auto setup = [&] {
    {
      Span span(tracer, "core.generate_operands", "core");
      const auto start = Clock::now();
      operands = {};  // release the previous set first: one set at a time
      operands = hm::core::generate_operands(partition, config.seed);
      operand_seconds.push_back(seconds_since(start));
    }
    std::unique_ptr<hm::sim::Scheduler> scheduler;
    {
      Span span(tracer, "sched.Registry::make", "sched");
      scheduler =
          hm::sched::Registry::instance().make("ODDOML", platform, partition);
    }
    Matrix warm = operands.c;
    Span span(tracer, "runtime.execute_online warm-up", "runtime");
    hm::runtime::execute_online(*scheduler, platform, partition, operands.a,
                                operands.b, warm, options);
  };
  measure_setup(report, config.smoke ? 1 : 5, setup);

  // The reference is computed once per seed, outside set-up and timing.
  Matrix reference = operands.c;
  hm::matrix::gemm(operands.a, operands.b, reference);

  // One product buffer, reset from the initial C before every product,
  // so the benchmark's own allocations stay fixed across the run.
  Matrix c = operands.c;
  // passes[0] collects untraced products, passes[1] traced ones.
  std::array<OnlinePass, 2> passes;
  const std::size_t first_span = tracer.spans().size();
  const auto run_start = Clock::now();
  for (std::size_t k = 0; keep_going(config, k, ops, run_start); ++k) {
    const bool traced = config.trace && k % 2 == 1;
    Tracer& op_tracer = traced ? tracer : untraced();
    OnlinePass& pass = passes[traced];
    std::copy(operands.c.data(), operands.c.data() + operands.c.size(),
              c.data());
    ++report.attempted;
    try {
      hm::runtime::ExecutorReport executed;
      const double cpu_start = cpu_seconds_self_and_children();
      Clock::time_point start, built;
      {
        Span product(op_tracer, "bench.product", "bench", k);
        start = Clock::now();
        std::unique_ptr<hm::sim::Scheduler> scheduler;
        {
          Span span(op_tracer, "sched.Registry::make", "sched", k);
          scheduler = hm::sched::Registry::instance().make("ODDOML", platform,
                                                           partition);
        }
        built = Clock::now();
        Span span(op_tracer, "runtime.execute_online", "runtime", k);
        executed = hm::runtime::execute_online(*scheduler, platform, partition,
                                               operands.a, operands.b, c,
                                               options);
      }
      const double total = seconds_since(start);
      const double build = std::chrono::duration<double>(built - start).count();
      pass.cpu_seconds += cpu_seconds_self_and_children() - cpu_start;
      pass.product_seconds.push_back(total);
      pass.seconds += total;
      pass.build_samples.push_back(build);
      pass.execute_samples.push_back(total - build);
      pass.execute_seconds += total - build;
      pass.updates += static_cast<double>(executed.updates_performed);
      pass.comm_blocks += static_cast<double>(executed.result.comm_blocks);
      pass.decisions += static_cast<double>(executed.result.decisions);
      const auto& stats = executed.transport_stats;
      pass.messages +=
          static_cast<double>(stats.messages_sent + stats.messages_received);
      pass.wire_bytes +=
          static_cast<double>(stats.bytes_sent + stats.bytes_received);
      pass.serde_seconds += stats.serde_seconds;
      pass.pool_allocations +=
          static_cast<double>(executed.buffer_pool.allocations);
      pass.share_max.push_back(worker_share_max(executed.updates_per_worker));
      report.info["kernel_variant"] = executed.kernel_variant;
      report.info["kernel_blocking"] =
          hm::matrix::blocking_to_string(executed.kernel_blocking);
      ++pass.products;
      if (executed.updates_performed != partition.total_updates())
        report.fail("product " + std::to_string(k) + ": " +
                    check_coverage(executed.updates_performed, partition));
      const std::string mismatch = check_product(c, reference);
      if (!mismatch.empty())
        report.fail("product " + std::to_string(k) + ": " + mismatch);
    } catch (const std::exception& error) {
      report.fail("product " + std::to_string(k) + ": " + error.what());
    }
  }
  const std::size_t last_span = tracer.spans().size();

  const OnlinePass& main = passes[config.trace];
  const double rate = ratio(main.updates, main.seconds);
  report.set("updates_per_s", rate, "1/s");
  set_latency(report, "product_s", main.product_seconds);
  set_generic(report, rate, main.product_seconds,
              ratio(main.cpu_seconds, static_cast<double>(main.products)));
  if (!config.trace) return report;

  const OnlinePass& traced = passes[1];
  report.set("bench.trace_overhead",
             trace_overhead(ratio(traced.seconds, traced.products),
                            ratio(passes[0].seconds, passes[0].products)),
             "ratio");
  const double products = static_cast<double>(traced.products);
  set_block_update(report, tracer, spec.q, config.seed,
                   spec.q >= 64 ? 400 : 4000);
  const double block_seconds =
      report.metrics["matrix.block_update_us"].value * 1e-6;
  report.set("core.operands_ms", median(operand_seconds) * 1e3, "ms");
  report.set("sched.build_ms", median(traced.build_samples) * 1e3, "ms");
  report.set("sched.decisions_per_product", ratio(traced.decisions, products),
             "count");
  report.set("runtime.execute_ms", median(traced.execute_samples) * 1e3, "ms");
  report.set("runtime.spawn_ms",
             probe_spawn_seconds(tracer, platform, spec.transport,
                                 spec.q * spec.q * 64, 5) *
                 1e3,
             "ms");
  report.set("runtime.us_per_block",
             ratio(traced.execute_seconds, traced.comm_blocks) * 1e6, "us");
  report.set("runtime.kernel_efficiency",
             kernel_efficiency(traced.updates, block_seconds, kWorkers,
                               traced.execute_seconds),
             "ratio");
  report.set("runtime.worker_share_max", mean(traced.share_max), "ratio");
  report.set("runtime.cpu_us_per_update",
             ratio(traced.cpu_seconds, traced.updates) * 1e6, "us");
  report.set("runtime.messages_per_product", ratio(traced.messages, products),
             "count");
  report.set("runtime.wire_kb_per_product",
             ratio(traced.wire_bytes, products) / 1024.0, "KiB");
  report.set("runtime.serde_ms_per_product",
             ratio(traced.serde_seconds, products) * 1e3, "ms");
  report.set("runtime.pool_allocs_per_product",
             ratio(traced.pool_allocations, products), "count");
  report.spans = tracer.spans();
  set_self_times(report, report.spans, first_span, last_span, traced.products);
  return report;
}

// ---- service-mixed ------------------------------------------------------

struct JobSample {
  bool large = false;
  bool traced = false;
  double latency = 0.0;
  double run = 0.0;
  double updates = 0.0;
  double priced = 0.0;
  int workers_used = 0;
  double pool_allocations = 0.0;
};

hm::service::JobSpec job_spec(bool large, std::uint64_t data_seed) {
  hm::service::JobSpec spec;
  spec.algorithm = "FT-ODDOML";
  spec.n_a = spec.n_ab = spec.n_b = large ? kLargeN : kSmallN;
  spec.q = kServiceQ;
  spec.data_seed = data_seed;
  spec.weight = large ? 1.0 : 2.0;
  return spec;
}

Matrix job_reference(const hm::service::JobSpec& spec) {
  const Partition partition(spec.n_a, spec.n_ab, spec.n_b, spec.q);
  auto operands = hm::core::generate_operands(partition, spec.data_seed);
  hm::matrix::gemm(operands.a, operands.b, operands.c);
  return std::move(operands.c);
}

Report run_service(const RunConfig& config) {
  Report report;
  Tracer tracer(config.trace);
  const Platform platform =
      Platform::homogeneous(kWorkers, kServiceC, kServiceW, kBuffers);
  hm::util::Rng seeds(config.seed);
  const hm::service::JobSpec small = job_spec(false, seeds());
  const hm::service::JobSpec large = job_spec(true, seeds());
  const std::size_t cycles = op_count(config, kServiceCyclesPerSecond, 2);

  hm::service::DaemonConfig daemon_config;
  daemon_config.platform = platform;
  daemon_config.executor.transport = hm::runtime::TransportKind::kThread;
  daemon_config.executor.verify = false;
  daemon_config.max_payload_doubles = kServicePayloadDoubles;
  daemon_config.max_concurrent_jobs = 2;
  daemon_config.calibration_cache = "off";

  std::unique_ptr<hm::service::Daemon> daemon;
  std::vector<std::unique_ptr<hm::service::TcpClient>> clients;
  auto setup = [&] {
    clients.clear();
    daemon.reset();
    std::uint16_t port = 0;
    {
      Span span(tracer, "service.Daemon spawn", "service");
      daemon = std::make_unique<hm::service::Daemon>(daemon_config);
      port = daemon->serve_tcp(0);
    }
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(std::make_unique<hm::service::TcpClient>(
          port, kServicePayloadDoubles));
      for (const auto* spec : {&small, &large}) {
        Span span(tracer, "service.TcpClient::run warm-up", "service");
        const auto warm = clients.back()->run(*spec);
        if (warm.state != hm::service::JobState::kCompleted)
          throw std::runtime_error("warm-up job did not complete: " +
                                   warm.error);
      }
    }
  };
  measure_setup(report, config.smoke ? 1 : 3, setup);

  const Matrix small_reference = job_reference(small);
  const Matrix large_reference = job_reference(large);

  // Closed loop: each client sends its next job when the previous one
  // returns. A traced run traces every other cycle of both clients.
  std::mutex report_mutex;  // guards report.fail / attempted from clients
  std::vector<std::vector<JobSample>> per_client(kClients);
  const std::size_t first_span = tracer.spans().size();
  const auto before = daemon->fleet().transport_stats();
  const double cpu_start = cpu_seconds_self_and_children();
  const auto run_start = Clock::now();
  std::vector<std::thread> threads;
  for (int client = 0; client < kClients; ++client) {
    threads.emplace_back([&, client] {
      // Client 0 sends its large job last in the cycle, client 1 in the
      // middle, so large jobs overlap small ones of the other client.
      const int large_slot = client == 0 ? kCycleLength - 1 : 3;
      for (std::size_t cycle = 0; keep_going(config, cycle, cycles, run_start);
           ++cycle) {
        const bool traced = config.trace && cycle % 2 == 1;
        Tracer& op_tracer = traced ? tracer : untraced();
        for (int slot = 0; slot < kCycleLength; ++slot) {
          const bool is_large = slot == large_slot;
          const std::uint64_t id =
              (cycle * kClients + client) * kCycleLength + slot;
          JobSample sample;
          sample.large = is_large;
          sample.traced = traced;
          std::string failure;
          try {
            hm::service::JobResult result;
            const auto start = Clock::now();
            {
              Span span(op_tracer, "service.TcpClient::run", "service", id);
              result = clients[client]->run(is_large ? large : small);
            }
            sample.latency = seconds_since(start);
            if (result.state != hm::service::JobState::kCompleted) {
              failure = std::string("job ") +
                        hm::service::job_state_name(result.state) + ": " +
                        result.error;
            } else {
              failure = check_product(
                  result.c, is_large ? large_reference : small_reference);
            }
            sample.run = result.wall_seconds;
            sample.updates = static_cast<double>(result.updates_performed);
            sample.priced = result.priced_throughput;
            sample.workers_used = result.workers_used;
            sample.pool_allocations =
                static_cast<double>(result.pool_delta.allocations);
          } catch (const std::exception& error) {
            failure = error.what();
          }
          std::lock_guard<std::mutex> lock(report_mutex);
          ++report.attempted;
          if (!failure.empty()) {
            report.fail("job " + std::to_string(id) + ": " + failure);
            continue;
          }
          per_client[client].push_back(sample);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall = seconds_since(run_start);
  const double cpu_seconds = cpu_seconds_self_and_children() - cpu_start;
  const auto after = daemon->fleet().transport_stats();
  const std::size_t last_span = tracer.spans().size();
  std::vector<JobSample> jobs;
  for (const auto& samples : per_client)
    jobs.insert(jobs.end(), samples.begin(), samples.end());

  auto collect = [&](int large, int traced, double JobSample::*field) {
    std::vector<double> values;
    for (const JobSample& job : jobs)
      if ((large < 0 || job.large == (large == 1)) &&
          (traced < 0 || job.traced == (traced == 1)))
        values.push_back(job.*field);
    return values;
  };
  const double rate = ratio(static_cast<double>(jobs.size()), wall);
  report.set("jobs_per_s", rate, "1/s");
  const auto small_latency = collect(0, -1, &JobSample::latency);
  set_latency(report, "small_job_s", small_latency);
  set_latency(report, "large_job_s", collect(1, -1, &JobSample::latency));
  set_generic(report, rate, small_latency,
              ratio(cpu_seconds, static_cast<double>(jobs.size())));
  if (!config.trace) {
    set_kernel_info(report);
    return report;
  }

  report.set("bench.trace_overhead",
             trace_overhead(mean(collect(-1, 1, &JobSample::latency)),
                            mean(collect(-1, 0, &JobSample::latency))),
             "ratio");
  const double job_count = static_cast<double>(jobs.size());
  double updates = 0.0, allocations = 0.0;
  std::vector<double> priced_over_actual;
  for (const JobSample& job : jobs) {
    updates += job.updates;
    allocations += job.pool_allocations;
    priced_over_actual.push_back(
        ratio(job.priced, ratio(job.updates, job.run)));
  }
  set_block_update(report, tracer, kServiceQ, config.seed, 4000);
  const double block_seconds =
      report.metrics["matrix.block_update_us"].value * 1e-6;
  for (const bool is_large : {false, true}) {
    const std::string suffix = is_large ? "large" : "small";
    const auto runs = collect(is_large, -1, &JobSample::run);
    const auto latencies = collect(is_large, -1, &JobSample::latency);
    std::vector<double> overheads;
    for (std::size_t i = 0; i < runs.size(); ++i)
      overheads.push_back(latencies[i] - runs[i]);
    report.set("service.run_ms." + suffix, median(runs) * 1e3, "ms");
    report.set("service.overhead_ms." + suffix, median(overheads) * 1e3, "ms");
  }
  std::vector<double> large_workers;
  for (const JobSample& job : jobs)
    if (job.large) large_workers.push_back(job.workers_used);
  report.set("service.workers_used.large", mean(large_workers), "count");
  report.set("service.pool_allocs", ratio(allocations, job_count), "count");
  report.set("service.priced_over_actual", median(priced_over_actual),
             "ratio");

  std::vector<double> price_samples;
  {
    Span span(tracer, "service.price_job probes", "service");
    const std::vector<double> drift(kWorkers, 1.0);
    const std::vector<char> alive(kWorkers, 1);
    for (const auto* spec : {&small, &large}) {
      std::vector<double> samples;
      for (int i = 0; i < 200; ++i) {
        const auto start = Clock::now();
        const auto verdict = hm::service::price_job(
            *spec, platform, drift, alive, kServicePayloadDoubles);
        samples.push_back(seconds_since(start));
        if (!verdict.admitted)
          throw std::runtime_error("price_job rejected a workload job: " +
                                   verdict.reason);
      }
      price_samples.push_back(median(samples));
    }
  }
  report.set("service.price_us", mean(price_samples) * 1e6, "us");
  report.set("model.lp_solve_us",
             probe_lp_seconds(tracer, platform, 200) * 1e6, "us");
  report.set("runtime.execute_ms",
             median(collect(-1, -1, &JobSample::run)) * 1e3, "ms");
  report.set("runtime.spawn_ms",
             probe_spawn_seconds(tracer, platform,
                                 hm::runtime::TransportKind::kThread,
                                 kServicePayloadDoubles, 5) *
                 1e3,
             "ms");
  report.set("runtime.kernel_efficiency",
             kernel_efficiency(updates, block_seconds, kWorkers, wall),
             "ratio");
  report.set("runtime.cpu_us_per_update",
             ratio(cpu_seconds, updates) * 1e6, "us");
  report.set("runtime.messages_per_product",
             ratio(static_cast<double>(after.messages_sent +
                                       after.messages_received -
                                       before.messages_sent -
                                       before.messages_received),
                   job_count),
             "count");
  report.set("runtime.pool_allocs_per_product", ratio(allocations, job_count),
             "count");
  report.spans = tracer.spans();
  std::size_t traced_jobs = 0;
  for (const JobSample& job : jobs) traced_jobs += job.traced;
  set_self_times(report, report.spans, first_span, last_span, traced_jobs);
  clients.clear();
  daemon.reset();
  return report;
}

}  // namespace

void Report::fail(const std::string& reason) {
  ++failed;
  if (failures.size() < 10) failures.push_back(reason);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sim-paper", "online-q80-thread", "online-q16-tcp", "service-mixed"};
  return names;
}

Report run_workload(const RunConfig& config) {
  if (config.workload == "sim-paper") return run_sim_paper(config);
  if (config.workload == "online-q80-thread")
    return run_online(config, {hm::runtime::TransportKind::kThread, 960, 80,
                               kC80, kW80, kQ80ProductsPerSecond});
  if (config.workload == "online-q16-tcp")
    return run_online(config, {hm::runtime::TransportKind::kTcp, 320, 16,
                               kC16, kW16, kQ16ProductsPerSecond});
  if (config.workload == "service-mixed") return run_service(config);
  throw std::invalid_argument("unknown workload: " + config.workload);
}

}  // namespace wallbench
