// Spans for the traced runs. Stage totals are summed in place by the traced
// loops (no per-arrival cost beyond the clock reads); the raw spans of the
// first kRawSpanLimit arrivals or jobs of each traced cell or rung are kept
// here and written as a Chrome trace-event file (chrome://tracing, Perfetto)
// when the run ends. Spans of one arrival or job share one id, and each
// stage span names the arrival/job span that caused it as its parent.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

inline constexpr std::uint64_t kRawSpanLimit = 20000;

class SpanLog {
 public:
  // A track is one row of the trace view: a traced cell or a live rung.
  int add_track(const std::string& name);

  // `name` and `parent` must be string literals (stored by pointer);
  // `parent` is null for a root span.
  void add(int track, const char* name, const char* parent, std::uint64_t id,
           std::int64_t start_ns, std::int64_t end_ns);

  std::size_t size() const { return spans_.size(); }

  void write_chrome(std::ostream& out) const;

 private:
  struct Span {
    int track;
    const char* name;
    const char* parent;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<std::string> tracks_;
  std::vector<Span> spans_;
};

}  // namespace bench
