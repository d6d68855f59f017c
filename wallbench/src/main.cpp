// wallbench: wall-clock benchmark of the simulator, the online runtime
// and the multi-job daemon.
//
//   wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <results.json> [--trace-out <spans.json>]
//             [--commit <id>] [--smoke]
//
// Writes every metric it measured, with units, the host stamp and the
// correctness outcome to --out; with --trace 1 also the Chrome
// trace-event file. Exits 0 when every operation was correct, 1 when
// the correctness gate failed, 2 on a usage error or an unoptimised
// build. `run.py` beside this directory builds the program and turns
// the result file into the benchmark's one-line summary.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "host.hpp"
#include "matrix/tuning.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef WALLBENCH_BUILD_TYPE
#define WALLBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace wallbench;

// Every per-layer metric, so a traced run reports the full ledger on
// every workload: a layer the workload never calls reads 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"matrix.block_update_us", "us"},
    {"matrix.block_update_gflops", "GFLOP/s"},
    {"core.operands_ms", "ms"},
    {"sched.build_ms", "ms"},
    {"sched.decisions_per_product", "count"},
    {"sched.select_ms.Het", "ms"},
    {"sched.select_ms.HomI", "ms"},
    {"sched.select_ms.Hom", "ms"},
    {"het_bound_over_achieved", "ratio"},
    {"sim.cell_ms.BMM", "ms"},
    {"sim.cell_ms.Het", "ms"},
    {"sim.cell_ms.Hom", "ms"},
    {"sim.cell_ms.HomI", "ms"},
    {"sim.cell_ms.ODDOML", "ms"},
    {"sim.cell_ms.OMMOML", "ms"},
    {"sim.cell_ms.ORROML", "ms"},
    {"sim.engine_decisions_per_s", "1/s"},
    {"model.lp_solve_us", "us"},
    {"runtime.execute_ms", "ms"},
    {"runtime.spawn_ms", "ms"},
    {"runtime.us_per_block", "us"},
    {"runtime.kernel_efficiency", "ratio"},
    {"runtime.worker_share_max", "ratio"},
    {"runtime.cpu_us_per_update", "us"},
    {"runtime.messages_per_product", "count"},
    {"runtime.wire_kb_per_product", "KiB"},
    {"runtime.serde_ms_per_product", "ms"},
    {"runtime.pool_allocs_per_product", "count"},
    {"service.price_us", "us"},
    {"service.run_ms.small", "ms"},
    {"service.run_ms.large", "ms"},
    {"service.overhead_ms.small", "ms"},
    {"service.overhead_ms.large", "ms"},
    {"service.workers_used.large", "count"},
    {"service.pool_allocs", "count"},
    {"service.priced_over_actual", "ratio"},
    {"self_ms.bench", "ms"},
    {"self_ms.core", "ms"},
    {"self_ms.sched", "ms"},
    {"self_ms.sim", "ms"},
    {"self_ms.model", "ms"},
    {"self_ms.matrix", "ms"},
    {"self_ms.runtime", "ms"},
    {"self_ms.service", "ms"},
    {"peak_rss_mb", "MB"},
    {"bench.steal_share", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void write_results(std::ostream& out, const RunConfig& config,
                   const std::string& commit, const Report& report) {
  out << "{\n  \"workload\": " << json_string(config.workload)
      << ",\n  \"seed\": " << config.seed
      << ",\n  \"seconds\": " << json_number(config.seconds)
      << ",\n  \"trace\": " << (config.trace ? "true" : "false")
      << ",\n  \"smoke\": " << (config.smoke ? "true" : "false")
      << ",\n  \"host\": {\"cpu_model\": " << json_string(cpu_model())
      << ", \"nproc\": " << cpu_count()
      << ", \"build_type\": " << json_string(WALLBENCH_BUILD_TYPE)
      << ", \"commit\": " << json_string(commit) << "}"
      << ",\n  \"correct\": " << (report.failed == 0 ? "true" : "false")
      << ",\n  \"attempted\": " << report.attempted
      << ",\n  \"failed\": " << report.failed << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i)
    out << (i ? ", " : "") << json_string(report.failures[i]);
  out << "],\n  \"info\": {";
  bool first = true;
  for (const auto& [key, value] : report.info) {
    out << (first ? "" : ", ") << json_string(key) << ": "
        << json_string(value);
    first = false;
  }
  out << "},\n  \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : report.metrics) {
    out << (first ? "\n" : ",\n") << "    " << json_string(name)
        << ": {\"value\": " << json_number(metric.value)
        << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  out << "\n  }\n}\n";
}

int usage(const std::string& message) {
  std::cerr << "wallbench: " << message
            << "\nusage: wallbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --out <file> [--trace-out <file>]"
               " [--commit <id>] [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "wallbench: refusing to measure an unoptimised build "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 2;
#endif
  RunConfig config;
  std::string out_path, trace_path, commit = "unknown";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") config.workload = value();
      else if (arg == "--seed") config.seed = std::stoull(value());
      else if (arg == "--seconds") config.seconds = std::stod(value());
      else if (arg == "--trace") config.trace = std::stoi(value()) != 0;
      else if (arg == "--out") out_path = value();
      else if (arg == "--trace-out") trace_path = value();
      else if (arg == "--commit") commit = value();
      else if (arg == "--smoke") config.smoke = true;
      else throw std::invalid_argument("unknown argument " + arg);
    }
  } catch (const std::exception& error) {
    return usage(error.what());
  }
  if (out_path.empty()) return usage("--out is required");
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), config.workload) == names.end())
    return usage("unknown workload \"" + config.workload + "\"");

  // Isolation from persistent host state: no tuning search, no tuning
  // cache file, so runs of two commits never share one.
  hmxp::matrix::set_tuning_cache_override("off");
  hmxp::matrix::set_tune_mode(hmxp::matrix::TuneMode::kOff);

  Report report;
  const CpuTicks ticks_before = read_cpu_ticks();
  try {
    report = run_workload(config);
  } catch (const std::exception& error) {
    ++report.attempted;
    report.fail(std::string("workload aborted: ") + error.what());
  }
  const double steal = steal_share(ticks_before, read_cpu_ticks());
  report.set("bench.steal_share", steal, "ratio");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.set("fail_ratio",
             report.attempted ? static_cast<double>(report.failed) /
                                    static_cast<double>(report.attempted)
                              : 1.0,
             "ratio");
  if (config.trace) {
    for (const auto& [name, unit] : kPerLayer)
      if (!report.metrics.count(name)) report.set(name, 0.0, unit);
  }

  std::ofstream out(out_path);
  write_results(out, config, commit, report);
  out.close();
  if (!out) {
    std::cerr << "wallbench: cannot write " << out_path << "\n";
    return 2;
  }
  if (config.trace && !trace_path.empty()) {
    std::ofstream trace_out(trace_path);
    write_chrome_trace(trace_out, report.spans);
  }
  for (const std::string& failure : report.failures)
    std::cerr << "wallbench: FAILED " << failure << "\n";
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
