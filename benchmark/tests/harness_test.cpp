// Self-tests of the benchmark harness: the percentile rule, the live
// ladder's pass rule and max_rate interpolation, the backlog test, /proc
// parsing, and the result line's schema against BENCHMARK.json.
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>

#include <gtest/gtest.h>

#include "harness/procs.h"
#include "harness/report.h"
#include "harness/stats.h"

namespace bench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(Percentile, FailedJobsCountAsInfiniteWithoutNaN) {
  std::vector<double> sample(98, 1.0);
  sample.push_back(INFINITY);
  sample.push_back(INFINITY);
  EXPECT_TRUE(std::isinf(percentile(sample, 0.995)));
  EXPECT_TRUE(std::isinf(percentile({INFINITY, INFINITY}, 0.5)));
  EXPECT_DOUBLE_EQ(percentile(sample, 0.5), 1.0);
}

TEST(Geomean, OfPositiveValues) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
  EXPECT_THROW(geomean({}), std::invalid_argument);
  EXPECT_THROW(geomean({1.0, 0.0}), std::invalid_argument);
}

RungOutcome rung(double rate, double p99_s, double completed = 1.0,
                 double backlog = 0.0) {
  return RungOutcome{rate, p99_s, completed, backlog};
}

TEST(Ladder, ScoreIsTheWorstLimitRatio) {
  const Slo slo;  // 50 ms, 98 %
  EXPECT_DOUBLE_EQ(rung_score(rung(1000, 0.025), slo), 0.5);
  EXPECT_NEAR(rung_score(rung(1000, 0.010, 0.96), slo), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(rung_score(rung(1000, 0.010, 1.0, 100.0), slo), 2.0);
  EXPECT_DOUBLE_EQ(rung_score(rung(1000, INFINITY), slo), 1e6);
  EXPECT_NEAR(rung_score(rung(1000, 0.010, 0.0), slo), 50.0, 1e-9);
  EXPECT_TRUE(rung_passes(rung(1000, 0.050), slo));
  EXPECT_FALSE(rung_passes(rung(1000, 0.051), slo));
}

TEST(Ladder, BacklogGrowsPastLittlesLawBound) {
  const Slo slo;
  // 1000 jobs/s meeting a 50 ms limit hold at most 50 jobs in flight.
  EXPECT_TRUE(rung_passes(rung(1000, 0.01, 1.0, 50.0), slo));
  EXPECT_FALSE(rung_passes(rung(1000, 0.01, 1.0, 51.0), slo));
  EXPECT_DOUBLE_EQ(rung_score(rung(2000, 0.01, 1.0, 150.0), slo), 1.5);
}

TEST(Ladder, MaxRateInterpolatesInLogRate) {
  const Slo slo;
  // Scores 0.1 and 10 straddle 1 symmetrically in log space: the crossing
  // is the geometric midpoint of the two rates.
  const double rate =
      interpolate_max_rate(rung(1000, 0.005), rung(2000, 0.5), slo);
  EXPECT_NEAR(rate, std::sqrt(1000.0 * 2000.0), 1e-9);
  // A pass right at the limit is the answer; a failure that barely fails
  // puts the answer next to the failing rate.
  EXPECT_DOUBLE_EQ(
      interpolate_max_rate(rung(1000, 0.05), rung(2000, 0.5), slo), 1000.0);
  EXPECT_GT(interpolate_max_rate(rung(1000, 0.005), rung(2000, 0.0501), slo),
            1990.0);
  // A failing rung with no replies at all still gives a finite answer.
  const double none =
      interpolate_max_rate(rung(1000, 0.005), rung(2000, 0.01, 0.0), slo);
  EXPECT_GT(none, 1000.0);
  EXPECT_LT(none, 2000.0);
}

TEST(DispatchSpread, HerdingAndEvenSpread) {
  std::vector<double> times;
  std::vector<int> herd, even;
  for (int i = 0; i < 40; ++i) {
    times.push_back(i * 0.1);  // 10 decisions per unit window
    herd.push_back((i / 10) % 4);
    even.push_back(i % 4);
  }
  const DispatchSpread herded = dispatch_spread(times, herd, 4, 1.0);
  EXPECT_DOUBLE_EQ(herded.herd_concentration, 1.0);
  EXPECT_DOUBLE_EQ(herded.share_max, 0.25);
  const DispatchSpread spread = dispatch_spread(times, even, 4, 1.0);
  EXPECT_DOUBLE_EQ(spread.herd_concentration, 0.3);  // 3 of 10 per window
  EXPECT_THROW(dispatch_spread(times, even, 3, 1.0), std::invalid_argument);
}

TEST(Proc, ParsesStatAfterTheLastParenthesis) {
  const std::string stat =
      "4242 (lb (worker) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 "
      "20 0 1 0 123 4567 89\n";
  const auto cpu = parse_stat_cpu_seconds(stat, 100);
  ASSERT_TRUE(cpu.has_value());
  EXPECT_DOUBLE_EQ(*cpu, 3.0);
  EXPECT_FALSE(parse_stat_cpu_seconds("4242 (lb) S 1 2", 100).has_value());
  EXPECT_FALSE(parse_stat_cpu_seconds("no parenthesis", 100).has_value());
  EXPECT_FALSE(
      parse_stat_cpu_seconds("1 (x) S 1 1 1 0 -1 0 0 0 0 0 ab 5 0", 100));
}

TEST(Proc, ParsesSchedRuntimeAndVmHwm) {
  const auto run = parse_sched_runtime_seconds(
      "lb (4242, #threads: 1)\n---\n"
      "se.exec_start                                :       2052354.370882\n"
      "se.sum_exec_runtime                          :          1234.567890\n");
  ASSERT_TRUE(run.has_value());
  EXPECT_DOUBLE_EQ(*run, 1.23456789);
  EXPECT_FALSE(parse_sched_runtime_seconds("").has_value());
  EXPECT_FALSE(
      parse_sched_runtime_seconds("se.sum_exec_runtime : x\n").has_value());
  const auto hwm =
      parse_vm_hwm_mb("Name:\tlb\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n");
  ASSERT_TRUE(hwm.has_value());
  EXPECT_DOUBLE_EQ(*hwm, 2.0);
  EXPECT_FALSE(parse_vm_hwm_mb("Name:\tlb\n").has_value());
}

TEST(Proc, ReadsThisProcess) {
  volatile double sink = 0.0;
  for (int i = 0; i < 1000000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GT(process_cpu_seconds(getpid()), 0.0);
  EXPECT_GT(process_peak_rss_mb(getpid()), 0.0);
}

Report full_report(bool traced) {
  Report report;
  double v = 1.0;
  for (const MetricSpec& spec :
       traced ? per_layer_metrics() : end_to_end_metrics()) {
    report.set(spec.name, v += 0.5);
  }
  report.attempt(10);
  return report;
}

TEST(Result, LineHasExactlyTheResultKeys) {
  for (const bool traced : {false, true}) {
    const std::string json = full_report(traced).result_json(traced);
    EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 10, "
                         "\"failed\": 0, \"metrics\": {",
                         0),
              0u)
        << json;
    const auto& specs = traced ? per_layer_metrics() : end_to_end_metrics();
    const std::regex entry(
        "\"([A-Za-z0-9_.-]+)\": \\{\"value\": ([-0-9.e+]+), \"unit\": "
        "\"([^\"]+)\"\\}");
    std::size_t count = 0;
    for (std::sregex_iterator it(json.begin(), json.end(), entry), end;
         it != end; ++it, ++count) {
      ASSERT_LT(count, specs.size());
      EXPECT_EQ((*it)[1], specs[count].name);
      EXPECT_EQ((*it)[3], specs[count].unit);
    }
    EXPECT_EQ(count, specs.size());
    EXPECT_EQ(json.substr(json.size() - 2), "}}");
  }
}

TEST(Result, RefusesMissingOrNonFiniteMetrics) {
  Report missing;
  EXPECT_THROW(missing.result_json(false), std::logic_error);
  Report nan = full_report(false);
  nan.set("jobs_per_s", NAN);
  EXPECT_THROW(nan.result_json(false), std::logic_error);
}

TEST(Result, FailedChecksCountAndClearCorrect) {
  Report report = full_report(false);
  EXPECT_TRUE(report.check(true, "fine"));
  EXPECT_FALSE(report.check(false, "broken"));
  report.fail(3, "lost jobs");
  EXPECT_FALSE(report.correct());
  EXPECT_EQ(report.failed(), 4u);
  EXPECT_NE(report.result_json(false).find("\"correct\": false"),
            std::string::npos);
}

TEST(Result, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(std::stod(format_number(0.1 + 0.2)), 0.1 + 0.2);
  EXPECT_EQ(std::stod(format_number(1.0 / 3.0)), 1.0 / 3.0);
}

TEST(Result, MetricTablesMatchBenchmarkJson) {
  std::ifstream in(BENCHMARK_JSON);
  ASSERT_TRUE(in) << BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const auto listed = [&](const char* section) {
    const std::size_t begin = json.find(std::string("\"") + section + "\"");
    const std::size_t end = json.find(']', begin);
    return json.substr(begin, end - begin);
  };
  for (const auto& [section, specs] :
       {std::pair{"end_to_end", end_to_end_metrics()},
        std::pair{"per_layer", per_layer_metrics()}}) {
    const std::string block = listed(section);
    std::size_t entries = 0;
    for (std::size_t at = block.find("\"name\""); at != std::string::npos;
         at = block.find("\"name\"", at + 1)) {
      ++entries;
    }
    EXPECT_EQ(entries, specs.size()) << section;
    for (const MetricSpec& spec : specs) {
      const std::string needle = "\"name\": \"" + spec.name +
                                 "\", \"unit\": \"" + spec.unit +
                                 "\", \"better\": \"" + spec.better + "\"";
      EXPECT_NE(block.find(needle), std::string::npos) << needle;
    }
  }
}

}  // namespace
}  // namespace bench
