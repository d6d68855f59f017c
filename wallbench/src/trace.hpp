// In-memory span recorder for the traced run.
//
// Every call the benchmark makes into a library layer (core, sched,
// sim, model, matrix, runtime, service) can be wrapped in a Span. When
// the tracer is disabled a Span costs two branches; when enabled it
// records name, layer, start, end, parent and the id of the product,
// cell or job it belongs to. Spans are written out at exit as Chrome
// trace-event JSON (chrome://tracing or the Perfetto UI open it
// offline), and per-layer self times are derived from them: a span's
// self time is its duration minus the part of its interval its child
// spans cover.
#pragma once
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace wallbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;   // e.g. "runtime.execute_online"
  std::string layer;  // core | sched | sim | model | matrix | runtime | service | bench
  std::int64_t start_ns = 0;  // relative to the tracer's epoch
  std::int64_t end_ns = 0;
  int parent = -1;            // index into the span list, -1 for a root
  std::uint64_t op_id = 0;    // product, cell or job id
  int thread = 0;             // small per-thread ordinal
  bool derived = false;       // synthesized from a reported duration
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false);

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread and returns its index (-1 when
  /// disabled). The span's parent is the innermost open span of the
  /// same thread.
  int open(const std::string& name, const std::string& layer,
           std::uint64_t op_id);
  void close(int index);

  /// Records a closed child of `parent` covering [start, start + seconds]
  /// of wall time the library reported rather than the benchmark timed
  /// (Het's selection phase inside run_algorithm).
  void add_derived(int parent, const std::string& name,
                   const std::string& layer, Clock::time_point start,
                   double seconds);

  std::vector<SpanRecord> spans() const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII guard for Tracer::open / close.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name, const std::string& layer,
       std::uint64_t op_id = 0)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(name, layer, op_id) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans);

/// Summed self time per layer, in seconds, over the spans with indices
/// in [first, last) (parents outside the range still clip children).
std::map<std::string, double> layer_self_seconds(
    const std::vector<SpanRecord>& spans, std::size_t first = 0,
    std::size_t last = SIZE_MAX);

/// Writes the spans as a Chrome trace-event JSON array of complete
/// ("ph":"X") events, timestamps in microseconds.
void write_chrome_trace(std::ostream& out,
                        const std::vector<SpanRecord>& spans);

}  // namespace wallbench
