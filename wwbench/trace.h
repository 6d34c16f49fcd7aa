// In-memory span recorder for the traced benchmark run. Spans are recorded by the benchmark
// around its calls into the system's public functions and seams (a window call, a topology
// delta, a window-log append); nothing inside src/ is instrumented. Spans nest on the driver
// thread, so each span's parent is the span open when it began. The whole trace is kept in
// memory and written out once, at the end, as Chrome trace-event JSON.
#ifndef WWBENCH_TRACE_H_
#define WWBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace wwbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int32_t parent = -1;  // index of the enclosing span, -1 at top level
    int64_t window = -1;  // window index the span belongs to (-1 = none)
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  // A disabled tracer records nothing; Scope on it costs one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int64_t window = -1) : tracer_(tracer) {
      if (tracer_.enabled_) {
        id_ = static_cast<int32_t>(tracer_.spans_.size());
        tracer_.spans_.push_back(Span{name, tracer_.open_, window, NowNs(), 0});
        tracer_.open_ = id_;
      }
    }
    ~Scope() {
      if (id_ >= 0) {
        Span& span = tracer_.spans_[static_cast<size_t>(id_)];
        span.end_ns = NowNs();
        tracer_.open_ = span.parent;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int32_t id_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: number of spans, total duration and self time (duration minus the part
  // covered by direct child spans), in milliseconds.
  struct NameTotals {
    size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, NameTotals> Totals() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, NameTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      NameTotals& t = out[s.name];
      ++t.count;
      t.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      t.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
    }
    return out;
  }

  // Writes every span as a complete ("ph":"X") trace event, microsecond timestamps relative
  // to the first span. Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path, const std::string& process_name) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                 "\"args\":{\"name\":\"%s\"}}",
                 process_name.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"window\":%lld}}",
                   s.name, static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                   static_cast<long long>(s.window));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

}  // namespace wwbench

#endif  // WWBENCH_TRACE_H_
