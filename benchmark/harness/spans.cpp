#include "harness/spans.h"

#include <algorithm>
#include <cstdio>

namespace bench {

int SpanLog::add_track(const std::string& name) {
  tracks_.push_back(name);
  return static_cast<int>(tracks_.size()) - 1;
}

void SpanLog::add(int track, const char* name, const char* parent,
                  std::uint64_t id, std::int64_t start_ns,
                  std::int64_t end_ns) {
  spans_.push_back(Span{track, name, parent, id, start_ns, end_ns});
}

void SpanLog::write_chrome(std::ostream& out) const {
  std::int64_t epoch = 0;
  if (!spans_.empty()) {
    epoch = std::min_element(spans_.begin(), spans_.end(),
                             [](const Span& a, const Span& b) {
                               return a.start_ns < b.start_ns;
                             })
                ->start_ns;
  }
  out << "{\"traceEvents\": [\n";
  const char* sep = "";
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    out << sep << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
        << "\"tid\": " << i << ", \"args\": {\"name\": \"" << tracks_[i]
        << "\"}}";
    sep = ",\n";
  }
  char buffer[96];
  for (const Span& span : spans_) {
    std::snprintf(buffer, sizeof(buffer), "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(span.start_ns - epoch) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    out << sep << "{\"name\": \"" << span.name << "\", \"ph\": \"X\", "
        << buffer << ", \"pid\": 1, \"tid\": " << span.track
        << ", \"args\": {\"id\": " << span.id;
    if (span.parent != nullptr) out << ", \"parent\": \"" << span.parent << "\"";
    out << "}}";
    sep = ",\n";
  }
  out << "\n]}\n";
}

}  // namespace bench
