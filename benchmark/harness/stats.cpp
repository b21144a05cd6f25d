#include "harness/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace bench {

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) throw std::invalid_argument("percentile: empty sample");
  std::sort(sample.begin(), sample.end());
  if (q <= 0.0) return sample.front();
  if (q >= 1.0) return sample.back();
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  if (idx + 1 >= sample.size()) return sample.back();
  const double frac = pos - static_cast<double>(idx);
  // Failed jobs enter as +inf; inf - inf must not turn the result into NaN.
  if (frac == 0.0 || sample[idx] == sample[idx + 1]) return sample[idx];
  return sample[idx] + frac * (sample[idx + 1] - sample[idx]);
}

double median(std::vector<double> sample) {
  return percentile(std::move(sample), 0.5);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean: empty sample");
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) throw std::invalid_argument("geomean: value <= 0");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

DispatchSpread dispatch_spread(const std::vector<double>& times,
                               const std::vector<int>& servers, int n,
                               double period) {
  if (times.empty() || times.size() != servers.size() || n < 1 ||
      !(period > 0.0)) {
    throw std::invalid_argument("dispatch_spread: bad input");
  }
  // Sparse per-window counts: only the servers a window touched are reset,
  // so the cost is O(decisions) even at n = 10^5.
  std::vector<std::uint32_t> window(static_cast<std::size_t>(n), 0);
  std::vector<std::uint32_t> total(static_cast<std::size_t>(n), 0);
  std::vector<int> touched;
  double window_max_sum = 0.0;
  std::uint32_t window_max = 0;
  double current = std::floor(times.front() / period);
  const auto close_window = [&] {
    window_max_sum += window_max;
    window_max = 0;
    for (int s : touched) window[static_cast<std::size_t>(s)] = 0;
    touched.clear();
  };
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double index = std::floor(times[i] / period);
    if (index != current) {
      close_window();
      current = index;
    }
    const int s = servers[i];
    if (s < 0 || s >= n) {
      throw std::invalid_argument("dispatch_spread: server out of range");
    }
    const auto slot = static_cast<std::size_t>(s);
    if (window[slot]++ == 0) touched.push_back(s);
    window_max = std::max(window_max, window[slot]);
    ++total[slot];
  }
  close_window();
  const auto decisions = static_cast<double>(times.size());
  return DispatchSpread{
      window_max_sum / decisions,
      *std::max_element(total.begin(), total.end()) / decisions};
}

double rung_score(const RungOutcome& rung, const Slo& slo) {
  double score = rung.p99_s / slo.p99_s;
  score = std::max(score, (1.0 - rung.completed_frac) /
                              (1.0 - slo.min_completed));
  score = std::max(score, rung.backlog_end / (rung.rate * slo.p99_s));
  if (std::isnan(score)) score = INFINITY;
  return std::clamp(score, 1e-6, 1e6);
}

bool rung_passes(const RungOutcome& rung, const Slo& slo) {
  return rung_score(rung, slo) <= 1.0;
}

double interpolate_max_rate(const RungOutcome& pass, const RungOutcome& fail,
                            const Slo& slo) {
  const double lp = std::log(rung_score(pass, slo));
  const double lf = std::log(rung_score(fail, slo));
  const double xp = std::log(pass.rate);
  const double xf = std::log(fail.rate);
  if (!(lf > lp)) return pass.rate;
  const double frac = std::clamp((0.0 - lp) / (lf - lp), 0.0, 1.0);
  return std::exp(xp + frac * (xf - xp));
}

}  // namespace bench
