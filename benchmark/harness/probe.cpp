#include "harness/probe.h"

#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

#include "harness/spans.h"

namespace bench {

namespace {

// xorshift64; the probe must not depend on the repository's sim::Rng.
struct Xorshift {
  std::uint64_t state;
  double uniform() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return (static_cast<double>(state >> 11) + 0.5) * 0x1.0p-53;
  }
};

double probe_once(const ProbeShape& shape) {
  const int n = shape.servers;
  Xorshift rng{0x9e3779b97f4a7c15ULL};
  std::vector<std::deque<double>> queues(static_cast<std::size_t>(n));
  std::vector<int> board(static_cast<std::size_t>(n), 0);
  const double rate = 0.9 * n;
  const bool large = n > 1000;
  const double period = large ? 0.25 : 4.0;
  double t = 0.0, next_board = 0.0, sum = 0.0;
  for (long job = 0; job < shape.jobs; ++job) {
    t -= std::log(rng.uniform()) / rate;
    if (!large) {
      // Paper-scale trials sweep every server on every arrival.
      for (auto& q : queues) {
        while (!q.empty() && q.front() <= t) q.pop_front();
      }
    }
    while (next_board <= t) {
      for (int i = 0; i < n; ++i) {
        auto& q = queues[static_cast<std::size_t>(i)];
        while (!q.empty() && q.front() <= next_board) q.pop_front();
        board[static_cast<std::size_t>(i)] = static_cast<int>(q.size());
      }
      next_board += period;
    }
    const auto a = static_cast<std::size_t>(rng.uniform() * n);
    const auto b = static_cast<std::size_t>(rng.uniform() * n);
    const std::size_t s = board[a] <= board[b] ? a : b;
    auto& q = queues[s];
    while (!q.empty() && q.front() <= t) q.pop_front();
    const double departure = (q.empty() ? t : q.back()) - std::log(rng.uniform());
    q.push_back(departure);
    ++board[s];
    sum += departure - t;
  }
  return sum;
}

}  // namespace

ProbeShape probe_for(int servers) {
  if (servers > 1000) return ProbeShape{100000, 600000, 0.080};
  return ProbeShape{100, 60000, 0.012};
}

double run_probe(const ProbeShape& shape) {
  const std::int64_t start = now_ns();
  volatile double sink = probe_once(shape);  // keep the work observable
  static_cast<void>(sink);
  return seconds_between(start, now_ns());
}

}  // namespace bench
