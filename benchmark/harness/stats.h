// Small statistics shared by the sim and live workloads: the percentile rule,
// medians and geometric means over repetitions, and the live ladder's pass
// rule with the log-rate interpolation that turns it into max_rate.
#pragma once

#include <vector>

namespace bench {

// Linear interpolation between closest ranks (position q * (n - 1) in the
// sorted sample), the rule sim::percentile_sorted uses. Takes the sample by
// value and sorts it. Throws std::invalid_argument on an empty sample.
double percentile(std::vector<double> sample, double q);
double median(std::vector<double> sample);

// Geometric mean of strictly positive values; throws std::invalid_argument
// on an empty sample or a value <= 0.
double geomean(const std::vector<double>& values);

// How a stream of dispatch decisions spread over n servers.
struct DispatchSpread {
  // Decision-weighted mean over windows of one update period of the busiest
  // server's share of that window's decisions: 1/n when every window spreads
  // evenly, toward 1 when each window herds onto one server.
  double herd_concentration = 0.0;
  // The busiest server's share of all decisions.
  double share_max = 0.0;
};

// `times[i]` and `servers[i]` describe decision i, in time order; servers
// lie in [0, n). Throws std::invalid_argument on empty or mismatched input.
DispatchSpread dispatch_spread(const std::vector<double>& times,
                               const std::vector<int>& servers, int n,
                               double period);

// The latency limit a live rung must meet (choosing-metrics guide: a fixed
// limit on the tail percentile, and no growing backlog).
struct Slo {
  double p99_s = 0.050;         // p99 response, seconds from due time
  double min_completed = 0.98;  // completions / offered
};

struct RungOutcome {
  double rate = 0.0;            // offered jobs/s
  double p99_s = 0.0;           // failed jobs count as +inf
  double completed_frac = 0.0;  // jobs with a DONE / jobs offered
  double backlog_end = 0.0;     // jobs outstanding when the rung's sending ends
};

// How far a rung is from its limits: the largest of p99 / limit, the share
// of jobs without a DONE over the share allowed (1 - min_completed), and
// backlog / (rate * limit) — the backlog test: by Little's law a rung whose
// responses meet the limit holds at most rate * limit jobs in flight, so
// more than that when sending ends means the queue is growing. A rung passes
// when its score is at most 1. Clamped to [1e-6, 1e6] so the log is finite.
double rung_score(const RungOutcome& rung, const Slo& slo);
bool rung_passes(const RungOutcome& rung, const Slo& slo);

// max_rate between the last passing rung and the first failing one: the rate
// where log(score) crosses 0, interpolated linearly in log(rate), so the
// result moves smoothly instead of jumping a whole ladder step.
double interpolate_max_rate(const RungOutcome& pass, const RungOutcome& fail,
                            const Slo& slo);

}  // namespace bench
