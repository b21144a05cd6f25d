#include "harness/report.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace bench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"jobs_per_s", "1/s", "higher"},
      {"p50_response", "svc", "lower"},
      {"p90_response", "svc", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"workload.ns_per_job", "ns", "lower"},
      {"loadinfo.sync_ns", "ns", "lower"},
      {"policy.select_ns", "ns", "lower"},
      {"queueing.ns_per_job", "ns", "lower"},
      {"lb.ns_per_job", "ns", "lower"},
      {"loadinfo.publishes_per_karrival", "count", "lower"},
      {"policy.recompute_ratio", "ratio", "lower"},
      {"loadinfo.info_age_p50", "svc", "lower"},
      {"loadinfo.info_age_p99", "svc", "lower"},
      {"policy.herd_concentration", "ratio", "lower"},
      {"policy.dispatch_share_max", "ratio", "lower"},
      {"trace.overhead_pct", "%", "lower"},
  };
  return specs;
}

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void Report::set(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit) {
  lines_.push_back("detail " + name + " " + format_number(value) + " " + unit);
}

void Report::note(const std::string& line) { lines_.push_back("# " + line); }

void Report::fail(std::uint64_t count, const std::string& why) {
  failed_ += count;
  lines_.push_back("FAILED " + std::to_string(count) + ": " + why);
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) fail(1, "check failed: " + what);
  return ok;
}

std::string Report::result_json(bool traced) const {
  const auto& specs = traced ? per_layer_metrics() : end_to_end_metrics();
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  const char* sep = "";
  for (const MetricSpec& spec : specs) {
    const auto it = metrics_.find(spec.name);
    if (it == metrics_.end()) {
      throw std::logic_error("metric '" + spec.name + "' was not measured");
    }
    if (!std::isfinite(it->second)) {
      throw std::logic_error("metric '" + spec.name + "' is not finite");
    }
    json += sep;
    json += "\"" + spec.name + "\": {\"value\": " +
            format_number(it->second) + ", \"unit\": \"" + spec.unit + "\"}";
    sep = ", ";
  }
  json += "}}";
  return json;
}

void Report::print(std::ostream& out, bool traced) const {
  const std::string result = result_json(traced);
  for (const std::string& line : lines_) out << line << "\n";
  for (const MetricSpec& spec : traced ? per_layer_metrics()
                                       : end_to_end_metrics()) {
    out << "metric " << spec.name << " " << format_number(metrics_.at(spec.name))
        << " " << spec.unit << " (" << spec.better << " is better)\n";
  }
  out << result << std::endl;
}

}  // namespace bench
