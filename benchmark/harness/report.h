// The benchmark's metric vocabulary and its result line.
//
// Every workload reports the same metrics, so each name has one meaning per
// workload family (README.md lists both): the end-to-end set in an untraced
// run, the per-layer set in a traced run. The last line of standard output
// is one JSON object with exactly the keys correct, attempted, failed and
// metrics; everything before it is human-readable detail.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace bench {

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
};

// The end-to-end metrics, in BENCHMARK.json order.
const std::vector<MetricSpec>& end_to_end_metrics();
// The per-layer metrics of the traced run, in BENCHMARK.json order.
const std::vector<MetricSpec>& per_layer_metrics();

class Report {
 public:
  // A metric of the reported set (end-to-end or per-layer).
  void set(const std::string& name, double value);
  // A human-readable extra (per cell, per rung); printed, never in the JSON.
  void detail(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line);

  // One operation (a trial, a job) attempted; failed ones also count in
  // failed. A failing correctness check counts as one failed operation.
  void attempt(std::uint64_t count) { attempted_ += count; }
  void fail(std::uint64_t count, const std::string& why);
  // Records a correctness check; returns `ok`.
  bool check(bool ok, const std::string& what);

  bool correct() const { return failed_ == 0; }
  std::uint64_t failed() const { return failed_; }

  // The result line for the traced (per-layer) or untraced (end-to-end) set.
  // Throws std::logic_error when a metric of the set is missing or not
  // finite — a broken run must not print a result.
  std::string result_json(bool traced) const;

  // Notes, details and every metric of the set with unit and direction,
  // then the result line last.
  void print(std::ostream& out, bool traced) const;

 private:
  std::map<std::string, double> metrics_;
  std::vector<std::string> lines_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// All 17 significant digits ("%.17g"), so the text reads back as the same
// double.
std::string format_number(double value);

}  // namespace bench
