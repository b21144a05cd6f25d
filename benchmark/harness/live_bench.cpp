// The live workloads: staleload_lb with its staleload_backend processes on
// the loopback interface, driven by the harness's open-loop client.
//
// Untraced: many stacks are started and the median start-up is set-up
// time; the last one serves a lo and a hi rung (and, on live-forward, a
// ladder of rising rates up to the first rung that misses the limit).
//
// Traced: one stack serves the two rungs untraced, for per-process CPU per
// job from /proc; a second stack serves them again with the dispatcher's
// --record on. The recording's LOAD reports and arrivals are then replayed
// through net::NetBoard and the dispatcher's policy, timed per stage — the
// dispatcher's board and select cost, measured from outside the process.
#include <sys/stat.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/rate_estimator.h"
#include "harness/client.h"
#include "harness/probe.h"
#include "harness/procs.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "net/net_board.h"
#include "policy/policy_factory.h"
#include "sim/rng.h"
#include "workload/replay.h"

namespace bench {
namespace {

constexpr const char* kPolicy = "basic_li";
// Client validity gate: the p90 of send lag must stay under 1 ms. A client
// that cannot keep up falls behind on most jobs; p99 is not gated because
// on a shared virtual machine it is set by host stalls that delay every
// process alike.
constexpr double kMaxSendLag = 1e-3;

struct LiveSpec {
  int backends;
  double mean_service;  // seconds
  double period;        // T, seconds
  double lo_rate;       // jobs/s
  double hi_rate;
  double lo_share;      // of --seconds
  double hi_share;
  bool ladder;          // climb from hi_rate until the limit is missed
};

LiveSpec spec_for(const std::string& workload) {
  if (workload == "live-forward") {
    return {4, 0.0001, 0.1, 1500.0, 4500.0, 0.15, 0.2, true};
  }
  if (workload == "live-herd") {
    // T = 10 mean service times; rho = 0.5 and 0.8. Eight backends, not
    // four: twice the jobs per second halves the seed-to-seed spread of the
    // queueing-set latencies, and the service time cannot shrink instead
    // (the event loop rounds every timer up to whole milliseconds).
    return {8, 0.010, 0.1, 400.0, 640.0, 0.35, 0.55, false};
  }
  throw std::invalid_argument("not a live workload: " + workload);
}

// Value of a numeric field in the dispatcher's one-line stats JSON.
double json_number(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\": ");
  if (at == std::string::npos) return NAN;
  return std::strtod(json.c_str() + at + key.size() + 4, nullptr);
}

// One dispatcher, its backends and the client connected to it.
class Stack {
 public:
  Stack(const RunOptions& options, const LiveSpec& spec,
        const std::string& dir, const std::string& record_dir) {
    const std::int64_t start = now_ns();
    std::vector<std::string> lb_args = {
        options.bin_dir + "/staleload_lb", "--backends",
        std::to_string(spec.backends),    "--policy",
        kPolicy,                          "--schedule",
        "periodic",                       "--update-period",
        format_number(spec.period),       "--seed",
        std::to_string(options.seed)};
    if (!record_dir.empty()) {
      lb_args.push_back("--record");
      lb_args.push_back(record_dir);
    }
    lb_ = std::make_unique<Child>(lb_args, dir + "/lb.log");
    // "LB LISTENING tcp=<port> udp=<port>": ephemeral ports, parsed.
    const std::string listening = expect_line("LB LISTENING");
    const auto tcp = static_cast<std::uint16_t>(
        std::stoi(listening.substr(listening.find("tcp=") + 4)));
    const std::string udp = listening.substr(listening.find("udp=") + 4);
    for (int i = 0; i < spec.backends; ++i) {
      backends_.push_back(std::make_unique<Child>(
          std::vector<std::string>{
              options.bin_dir + "/staleload_backend", "--index",
              std::to_string(i), "--report-to", "127.0.0.1:" + udp,
              "--update-period", format_number(spec.period),
              "--mean-service", format_number(spec.mean_service), "--seed",
              std::to_string(options.seed + 1 + static_cast<unsigned>(i))},
          dir + "/backend-" + std::to_string(i) + ".log"));
    }
    expect_line("LB READY");
    client_ = std::make_unique<Client>(stale::net::Endpoint{"127.0.0.1", tcp});
    setup_s = seconds_between(start, now_ns());
    period_ = spec.period;
  }

  // Backends send their first LOAD one period after they start; until then
  // the board holds no report at all. Rungs measure the steady state, so
  // they start after two periods.
  void settle() const {
    std::this_thread::sleep_for(std::chrono::duration<double>(2.0 * period_));
  }

  Client& client() { return *client_; }
  int backends() const { return static_cast<int>(backends_.size()); }

  // CPU seconds so far: the dispatcher, and each backend.
  double lb_cpu() const { return process_cpu_seconds(lb_->pid()); }
  std::vector<double> backend_cpu() const {
    std::vector<double> cpu;
    for (const auto& b : backends_) cpu.push_back(process_cpu_seconds(b->pid()));
    return cpu;
  }

  // Reads the dispatcher's VmHWM while it still runs, then stops the
  // processes and keeps the dispatcher's exit stats. The client's job
  // records stay readable.
  void shutdown() {
    lb_peak_rss_mb = process_peak_rss_mb(lb_->pid());
    lb_stats = lb_->stop(10.0);
    for (auto& backend : backends_) backend->stop(2.0);
  }

  double setup_s = 0.0;
  double lb_peak_rss_mb = 0.0;
  std::string lb_stats;

 private:
  std::string expect_line(const std::string& prefix) {
    for (;;) {
      const auto line = lb_->read_line(10.0);
      if (!line) {
        throw std::runtime_error("dispatcher never printed '" + prefix + "'");
      }
      if (line->rfind(prefix, 0) == 0) return *line;
    }
  }

  std::unique_ptr<Child> lb_;
  std::vector<std::unique_ptr<Child>> backends_;
  std::unique_ptr<Client> client_;
  double period_ = 0.0;
};

struct RungResult {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
  RungRun run;
  std::vector<double> response_s;  // failed jobs as +inf
  std::size_t completed = 0;
  double send_lag_p90 = 0.0;
  double send_lag_p99 = 0.0;
  double lb_cpu_s = 0.0;
  double backend_cpu_s = 0.0;      // all backends
  double backend_cpu_max_s = 0.0;  // the busiest backend
  double wall_s = 0.0;
  double span_s = 0.0;  // the first job's due time to the last DONE

  std::size_t jobs() const { return run.last - run.first; }
  RungOutcome outcome() const {
    return RungOutcome{rate, percentile(response_s, 0.99),
                       static_cast<double>(completed) / jobs(),
                       run.backlog_end};
  }
};

RungResult run_rung(Stack& stack, const std::string& name, double rate,
                    double seconds, std::uint64_t seed) {
  RungResult r;
  r.name = name;
  r.rate = rate;
  r.seconds = seconds;
  const double lb0 = stack.lb_cpu();
  const std::vector<double> be0 = stack.backend_cpu();
  const double wall0 = now_s();
  r.run = stack.client().run_rung(rate, seconds, seed, /*drain_s=*/3.0,
                                  stack.backends());
  r.wall_s = now_s() - wall0;
  r.lb_cpu_s = stack.lb_cpu() - lb0;
  const std::vector<double> be1 = stack.backend_cpu();
  for (std::size_t i = 0; i < be1.size(); ++i) {
    r.backend_cpu_s += be1[i] - be0[i];
    r.backend_cpu_max_s = std::max(r.backend_cpu_max_s, be1[i] - be0[i]);
  }
  std::vector<double> lags;
  const auto& jobs = stack.client().jobs();
  double last_done = 0.0;
  for (std::size_t j = r.run.first; j < r.run.last; ++j) {
    const ClientJob& job = jobs[j];
    lags.push_back(job.sent - job.due);
    const bool ok = job.replies == 1 && !job.error && job.done >= 0.0;
    r.response_s.push_back(ok ? job.done - job.due : INFINITY);
    r.completed += ok ? 1 : 0;
    if (ok) last_done = std::max(last_done, job.done);
  }
  if (lags.empty()) throw std::runtime_error("rung " + name + " sent no jobs");
  r.span_s = last_done - jobs[r.run.first].due;
  r.send_lag_p90 = percentile(lags, 0.90);
  r.send_lag_p99 = percentile(lags, 0.99);
  return r;
}

// A rung whose client ran late did not offer the schedule it claims: it is
// run once more, and only the second attempt is measured.
RungResult measured_rung(Stack& stack, const std::string& name, double rate,
                         double seconds, std::uint64_t seed, Report& report) {
  RungResult r = run_rung(stack, name, rate, seconds, seed);
  if (r.send_lag_p90 < kMaxSendLag) return r;
  report.note("rung " + name + ": client send lag p90 " +
              format_number(r.send_lag_p90 * 1e3) + " ms; running it again");
  report.attempt(r.jobs());
  if (r.completed < r.jobs()) {
    report.fail(r.jobs() - r.completed,
                "rung " + name + " (first attempt): jobs without a DONE");
  }
  return run_rung(stack, name, rate, seconds, seed);
}

double mean_of(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// Job-level and rung-level correctness.
void check_rung(const RungResult& r, Report& report) {
  report.attempt(r.jobs());
  const std::size_t failed = r.jobs() - r.completed;
  if (failed > 0) {
    report.fail(failed, "rung " + r.name + ": " + std::to_string(failed) +
                            " jobs without exactly one DONE from a known "
                            "backend");
  }
  report.check(r.send_lag_p90 < kMaxSendLag,
               "rung " + r.name + ": client send lag p90 " +
                   format_number(r.send_lag_p90 * 1e3) +
                   " ms >= 1 ms, the offered load was not the schedule");
}

void check_stack(Stack& stack, Report& report) {
  const Client& client = stack.client();
  std::size_t sent = 0;
  for (const ClientJob& job : client.jobs()) sent += job.sent >= 0.0 ? 1 : 0;
  report.check(client.protocol_errors() == 0,
               "client saw " + std::to_string(client.protocol_errors()) +
                   " lines naming no job it sent");
  stack.shutdown();
  const double received = json_number(stack.lb_stats, "jobs_received");
  const double completed = json_number(stack.lb_stats, "jobs_completed");
  const double rejected = json_number(stack.lb_stats, "jobs_rejected");
  report.check(received == static_cast<double>(sent) &&
                   completed == static_cast<double>(sent) && rejected == 0.0,
               "dispatcher stats (received " + format_number(received) +
                   ", completed " + format_number(completed) + ", rejected " +
                   format_number(rejected) + ") disagree with " +
                   std::to_string(sent) + " jobs sent");
}

void detail_rung(const RungResult& r, Report& report) {
  const std::string& n = r.name;
  const auto jobs = static_cast<double>(r.jobs());
  report.detail("offered_per_s." + n, jobs / r.seconds, "1/s");
  report.detail("jobs." + n, jobs, "count");
  report.detail("p50_ms." + n, percentile(r.response_s, 0.5) * 1e3, "ms");
  report.detail("p90_ms." + n, percentile(r.response_s, 0.9) * 1e3, "ms");
  report.detail("p99_ms." + n, percentile(r.response_s, 0.99) * 1e3, "ms");
  std::vector<double> finite;
  for (double v : r.response_s) {
    if (std::isfinite(v)) finite.push_back(v);
  }
  report.detail("mean_ms." + n, mean_of(finite) * 1e3, "ms");
  report.detail("client.send_lag_p90_ms." + n, r.send_lag_p90 * 1e3, "ms");
  report.detail("client.send_lag_p99_ms." + n, r.send_lag_p99 * 1e3, "ms");
  report.detail("lb.cpu_util." + n, r.lb_cpu_s / r.wall_s, "ratio");
  report.detail("backend.cpu_util_max." + n, r.backend_cpu_max_s / r.wall_s,
                "ratio");
  report.detail("net.backlog_end." + n, r.run.backlog_end, "count");
}

std::string make_run_dir(const RunOptions& options) {
  const std::string dir = options.work_dir + "/" + options.workload;
  ::mkdir(dir.c_str(), 0775);
  return dir;
}

void run_untraced(const RunOptions& options, const LiveSpec& spec,
                  Report& report) {
  const std::string dir = make_run_dir(options);
  const double start = now_s();
  // Set-up time swings with a shared host's speed just as the simulator's
  // throughput does, and the same probe tracks it (probe.h): each start-up
  // is bracketed by probe runs and scaled to the probe's nominal speed.
  // Set-up time is the median of many stacks; one unrecorded stack first
  // brings the binaries into the page cache. The last stack serves the rungs.
  const ProbeShape probe = probe_for(100);
  std::vector<double> setups, setups_unscaled;
  auto stack = std::make_unique<Stack>(options, spec, dir, "");
  double before = run_probe(probe);
  for (int i = 0; i < 15; ++i) {
    stack->shutdown();
    stack = std::make_unique<Stack>(options, spec, dir, "");
    const double after = run_probe(probe);
    setups_unscaled.push_back(stack->setup_s);
    setups.push_back(stack->setup_s * probe.nominal_s / ((before + after) / 2.0));
    before = after;
  }
  report.set("setup_s", median(setups));
  report.detail("setup_s_unscaled", median(setups_unscaled), "s");
  stack->settle();

  const Slo slo;
  std::vector<RungResult> rungs;
  rungs.push_back(measured_rung(*stack, "lo", spec.lo_rate,
                                options.seconds * spec.lo_share, options.seed,
                                report));
  rungs.push_back(measured_rung(*stack, "hi", spec.hi_rate,
                                options.seconds * spec.hi_share,
                                options.seed + 1, report));
  double max_rate = 0.0;
  if (spec.ladder) {
    // Climb in 2^(1/4) steps from the hi rung while the time budget lasts.
    const double step_s = options.seconds * 0.075;
    const RungResult* pass = nullptr;
    const RungResult* fail = nullptr;
    for (const RungResult& r : rungs) {
      if (rung_passes(r.outcome(), slo)) {
        pass = &r;
      } else if (fail == nullptr) {
        fail = &r;
      }
    }
    std::vector<RungResult> ladder;
    ladder.reserve(16);
    for (int k = 1; fail == nullptr && k <= 16 &&
                    now_s() + step_s < start + options.seconds * 0.95;
         ++k) {
      ladder.push_back(measured_rung(
          *stack, "ladder" + std::to_string(k),
          spec.hi_rate * std::pow(2.0, k / 4.0), step_s,
          options.seed + 1 + static_cast<unsigned>(k), report));
      const RungResult& r = ladder.back();
      check_rung(r, report);
      report.detail("ladder.rate." + std::to_string(k), r.rate, "1/s");
      report.detail("ladder.p99_ms." + std::to_string(k),
                    r.outcome().p99_s * 1e3, "ms");
      report.detail("ladder.score." + std::to_string(k),
                    rung_score(r.outcome(), slo), "ratio");
      if (rung_passes(r.outcome(), slo)) {
        pass = &r;
      } else {
        fail = &r;
        report.detail("lb.cpu_util.sat", r.lb_cpu_s / r.wall_s, "ratio");
        report.detail("backend.cpu_util_max.sat", r.backend_cpu_max_s / r.wall_s,
                      "ratio");
      }
    }
    if (pass == nullptr) {
      report.note("even the lo rung misses the limit; max_rate is its rate "
                  "scaled down by its score");
      max_rate = rungs.front().rate / rung_score(rungs.front().outcome(), slo);
    } else if (fail == nullptr) {
      report.note("ladder ended on a passing rung; max_rate is a lower bound");
      max_rate = pass->rate;
    } else {
      max_rate = interpolate_max_rate(pass->outcome(), fail->outcome(), slo);
    }
  }
  check_stack(*stack, report);

  std::vector<double> p50s, p90s;
  for (const RungResult& r : rungs) {
    check_rung(r, report);
    detail_rung(r, report);
    p50s.push_back(percentile(r.response_s, 0.5) / spec.mean_service);
    p90s.push_back(percentile(r.response_s, 0.9) / spec.mean_service);
  }
  // Without a ladder: the hi rung's completions over the time from its
  // first due time to its last DONE, drain included. Below saturation this
  // stays within a fraction of a percent of the offered rate; it falls when
  // the stack finishes the rung late or drops jobs.
  const RungResult& hi = rungs.back();
  report.set("jobs_per_s", spec.ladder ? max_rate
                                       : static_cast<double>(hi.completed) /
                                             hi.span_s);
  report.set("p50_response", geomean(p50s));
  report.set("p90_response", geomean(p90s));
  report.set("peak_rss_mb", stack->lb_peak_rss_mb);
}

// The dispatcher's board and select stages, replayed from a recording.
struct Replay {
  double sync_ns = 0.0;    // per arrival: apply the reports that landed
  double select_ns = 0.0;  // per arrival: build the context and select
  double recompute_ratio = 0.0;
  double reports_per_karrival = 0.0;
  std::vector<double> ages;  // seconds
};

// Arrival times (first column) of DIR/arrivals.trace. Not read through
// workload::load_replay_trace, which rejects the zero job sizes a 0.1 ms
// service recording contains (the DONE line rounds service to microseconds).
std::vector<double> recorded_arrivals(const std::string& dir) {
  std::ifstream in(dir + "/" + stale::workload::kArrivalsFile);
  if (!in) throw std::runtime_error("no recording in " + dir);
  std::vector<double> times;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    times.push_back(std::strtod(line.c_str(), nullptr));
  }
  if (times.empty()) throw std::runtime_error("empty recording in " + dir);
  return times;
}

Replay replay_recording(const std::string& dir, const LiveSpec& spec,
                        std::uint64_t seed) {
  const std::vector<double> arrivals = recorded_arrivals(dir);
  std::ifstream loads_in(dir + "/" + stale::workload::kLoadsFile);
  const std::vector<stale::workload::LoadEvent> loads =
      stale::workload::parse_loads(loads_in);
  Replay replay;
  constexpr int kPasses = 5;
  std::vector<double> sync_ns, select_ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    stale::net::NetBoard board(spec.backends,
                               stale::net::UpdateSchedule::kPeriodic,
                               spec.period, /*start_time=*/0.0);
    // The dispatcher's default estimator: a window of 4 * max(T, 0.25).
    stale::core::WindowedRateEstimator rate(4.0 * std::max(spec.period, 0.25),
                                            1e-9);
    const auto policy = stale::policy::make_policy(kPolicy);
    stale::sim::Rng rng(seed);
    std::size_t next_load = 0;
    std::uint64_t last_version = 0, changes = 0;
    std::int64_t sync_total = 0, select_total = 0;
    for (const double t : arrivals) {
      const std::int64_t t0 = now_ns();
      while (next_load < loads.size() && loads[next_load].time <= t) {
        const auto& load = loads[next_load++];
        board.apply_report(load.server, load.queue_len, load.time);
      }
      const std::int64_t t1 = now_ns();
      rate.on_arrival(t);
      stale::policy::DispatchContext context;
      context.loads = board.loads();
      context.age = board.phase_elapsed(t);
      context.lambda_total = rate.rate();
      context.phase_length = board.phase_length();
      context.phase_elapsed = context.age;
      context.info_version = board.version();
      const int server = policy->select(context, rng);
      const std::int64_t t2 = now_ns();
      static_cast<void>(server);
      sync_total += t1 - t0;
      select_total += t2 - t1;
      if (pass == 0) {
        if (context.info_version != last_version) ++changes;
        last_version = context.info_version;
        replay.ages.push_back(context.age);
      }
    }
    const auto count = static_cast<double>(arrivals.size());
    sync_ns.push_back(static_cast<double>(sync_total) / count);
    select_ns.push_back(static_cast<double>(select_total) / count);
    if (pass == 0) {
      replay.recompute_ratio = static_cast<double>(changes) / count;
      replay.reports_per_karrival =
          1000.0 * static_cast<double>(next_load) / count;
    }
  }
  replay.sync_ns = median(sync_ns);
  replay.select_ns = median(select_ns);
  return replay;
}

void run_traced(const RunOptions& options, const LiveSpec& spec,
                Report& report) {
  const std::string dir = make_run_dir(options);
  const std::string record_dir = dir + "/record";
  ::mkdir(record_dir.c_str(), 0775);
  const double lo_s = options.seconds * spec.lo_share / 2.0;
  const double hi_s = options.seconds * spec.hi_share / 2.0;

  // Stack A: untraced; per-process CPU and the client-side view.
  Stack plain(options, spec, dir, "");
  plain.settle();
  std::vector<RungResult> rungs;
  rungs.push_back(
      measured_rung(plain, "lo", spec.lo_rate, lo_s, options.seed, report));
  rungs.push_back(measured_rung(plain, "hi", spec.hi_rate, hi_s,
                                options.seed + 1, report));
  check_stack(plain, report);

  // Stack B: the same rungs with the dispatcher recording.
  Stack recorded(options, spec, dir, record_dir);
  recorded.settle();
  std::vector<RungResult> traced;
  traced.push_back(
      measured_rung(recorded, "lo", spec.lo_rate, lo_s, options.seed, report));
  traced.push_back(measured_rung(recorded, "hi", spec.hi_rate, hi_s,
                                 options.seed + 1, report));
  check_stack(recorded, report);

  SpanLog spans;
  std::vector<double> client_ns, lb_ns, backend_ns, herd, share;
  double overhead_sum = 0.0;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const RungResult& r = rungs[i];
    check_rung(r, report);
    check_rung(traced[i], report);
    detail_rung(r, report);
    const auto jobs = static_cast<double>(r.jobs());
    client_ns.push_back(r.run.client_cpu_s * 1e9 / jobs);
    lb_ns.push_back(r.lb_cpu_s * 1e9 / jobs);
    backend_ns.push_back(r.backend_cpu_s * 1e9 / jobs);
    const double traced_lb_ns =
        traced[i].lb_cpu_s * 1e9 / static_cast<double>(traced[i].jobs());
    const double overhead = 100.0 * (traced_lb_ns / lb_ns.back() - 1.0);
    overhead_sum += overhead;
    report.detail("lb.ns_per_job." + r.name, lb_ns.back(), "ns");
    report.detail("backend.ns_per_job." + r.name, backend_ns.back(), "ns");
    report.detail("client.ns_per_job." + r.name, client_ns.back(), "ns");
    report.detail("trace.overhead_pct." + r.name, overhead, "%");

    std::vector<double> times;
    std::vector<int> servers;
    const int track = spans.add_track(r.name);
    const auto& jobs_seen = plain.client().jobs();
    for (std::size_t j = r.run.first; j < r.run.last; ++j) {
      const ClientJob& job = jobs_seen[j];
      if (job.backend < 0) continue;
      times.push_back(job.due);
      servers.push_back(job.backend);
      if (j - r.run.first < kRawSpanLimit) {
        const auto ns = [](double s) {
          return static_cast<std::int64_t>(s * 1e9);
        };
        spans.add(track, "client.send_lag", "job", j, ns(job.due), ns(job.sent));
        spans.add(track, "lb+backend", "job", j, ns(job.sent), ns(job.done));
        spans.add(track, "job", nullptr, j, ns(job.due), ns(job.done));
      }
    }
    const DispatchSpread spread =
        dispatch_spread(times, servers, spec.backends, spec.period);
    herd.push_back(spread.herd_concentration);
    share.push_back(spread.share_max);
    report.detail("policy.herd_concentration." + r.name,
                  spread.herd_concentration, "ratio");
  }

  const Replay replay = replay_recording(record_dir, spec, options.seed);
  std::vector<double> ages_svc;
  for (double age : replay.ages) ages_svc.push_back(age / spec.mean_service);
  report.set("workload.ns_per_job", geomean(client_ns));
  report.set("loadinfo.sync_ns", replay.sync_ns);
  report.set("policy.select_ns", replay.select_ns);
  report.set("queueing.ns_per_job", geomean(backend_ns));
  report.set("lb.ns_per_job", geomean(lb_ns));
  report.set("loadinfo.publishes_per_karrival", replay.reports_per_karrival);
  report.set("policy.recompute_ratio", replay.recompute_ratio);
  report.set("loadinfo.info_age_p50", percentile(ages_svc, 0.50));
  report.set("loadinfo.info_age_p99", percentile(ages_svc, 0.99));
  report.set("policy.herd_concentration", geomean(herd));
  report.set("policy.dispatch_share_max", geomean(share));
  report.set("trace.overhead_pct",
             overhead_sum / static_cast<double>(rungs.size()));

  const std::string path = options.work_dir + "/" + options.workload +
                           ".trace.json";
  std::ofstream out(path);
  spans.write_chrome(out);
  report.note("wrote " + std::to_string(spans.size()) + " spans to " + path);
}

}  // namespace

void run_live_workload(const RunOptions& options, Report& report) {
  const LiveSpec spec = spec_for(options.workload);
  if (options.traced) {
    run_traced(options, spec, report);
  } else {
    run_untraced(options, spec, report);
  }
}

}  // namespace bench
