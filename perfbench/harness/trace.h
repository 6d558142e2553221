// In-memory span recorder for the traced benchmark run, plus the small
// statistics carat_bench reports (quantiles, a name -> value metric map).
//
// A span is one call into a layer's public function, timed from the
// caller's side of the boundary: name, start, end, the enclosing span and a
// request id shared by the spans of one request. Spans are kept in memory
// and written out once, when the run ends; a layer's self time is its
// span's duration minus the durations of its child spans (carat_bench is
// single-threaded where it records, so children never overlap).

#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Tracer {
 public:
  /// Spans past this many are counted but not kept (bounds memory on the
  /// long closed loops).
  static constexpr std::size_t kMaxSpans = 1u << 20;

  struct Span {
    const char* name = nullptr;  ///< a string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root
    std::uint64_t request = 0;
  };

  /// Opens a span on construction and closes it on destruction. A null
  /// tracer makes this a no-op, so untraced runs time the same code path.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Records a finished root span whose interval overlaps others (a
  /// request in flight beside other requests), so it cannot be a Scope.
  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Self times in microseconds of every kept span called `name`.
  std::vector<double> SelfTimesUs(const std::string& name) const;

  /// Writes one JSON object per line: a header line (`header` must be a
  /// JSON object) and then every kept span. False if the file can't be
  /// written.
  bool Write(const std::string& path, const std::string& header) const;

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
  std::uint64_t dropped_ = 0;
};

/// `q`-quantile (0..1) of `values` by linear interpolation; 0 when empty.
double Quantile(std::vector<double> values, double q);

double Median(const std::vector<double>& values);

/// Metrics by name, in output order; each carries its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Sets `name` unless an earlier, more specific measurement already did.
inline void SetIfAbsent(Metrics* metrics, const std::string& name,
                        double value, const std::string& unit) {
  metrics->emplace(name, Metric{value, unit});
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
