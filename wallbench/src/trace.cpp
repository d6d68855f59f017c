#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

namespace wallbench {

namespace {

// Open spans of the calling thread, innermost last. One tracer records
// at a time, so a single per-thread stack suffices.
thread_local std::vector<int> open_stack;

int thread_ordinal() {
  static std::atomic<int> next{0};
  thread_local const int ordinal = next.fetch_add(1);
  return ordinal;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::open(const std::string& name, const std::string& layer,
                 std::uint64_t op_id) {
  SpanRecord record;
  record.name = name;
  record.layer = layer;
  record.parent = open_stack.empty() ? -1 : open_stack.back();
  record.op_id = op_id;
  record.thread = thread_ordinal();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(record));
  }
  open_stack.push_back(index);
  // Stamp the start last so the bookkeeping above is not charged to the
  // span.
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].start_ns = start;
  return index;
}

void Tracer::close(int index) {
  const std::int64_t end = now_ns();
  if (open_stack.empty() || open_stack.back() != index)
    throw std::logic_error("wallbench: spans must close innermost first");
  open_stack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].end_ns = end;
}

void Tracer::add_derived(int parent, const std::string& name,
                         const std::string& layer, Clock::time_point start,
                         double seconds) {
  if (!enabled_ || parent < 0) return;
  SpanRecord record;
  record.name = name;
  record.layer = layer;
  record.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  record.end_ns = record.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  record.parent = parent;
  record.thread = thread_ordinal();
  record.derived = true;
  std::lock_guard<std::mutex> lock(mutex_);
  record.op_id = spans_[parent].op_id;
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent < 0) continue;
    const SpanRecord& parent = spans[span.parent];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (lo < hi) children[span.parent].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns -
                                            covered);
  }
  return self;
}

std::map<std::string, double> layer_self_seconds(
    const std::vector<SpanRecord>& spans, std::size_t first,
    std::size_t last) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, double> by_layer;
  for (std::size_t i = first; i < std::min(last, spans.size()); ++i)
    by_layer[spans[i].layer] += static_cast<double>(self[i]) * 1e-9;
  return by_layer;
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<SpanRecord>& spans) {
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    out << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
        << json_escape(span.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << span.thread << ",\"ts\":" << static_cast<double>(span.start_ns) / 1e3
        << ",\"dur\":"
        << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ",\"args\":{\"id\":" << span.op_id << ",\"parent\":" << span.parent
        << ",\"derived\":" << (span.derived ? "true" : "false") << "}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace wallbench
