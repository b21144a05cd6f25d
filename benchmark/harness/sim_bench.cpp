// The simulator workloads.
//
// Untraced: every cell's trials run through driver::run_trial with the seeds
// driver::run_experiment would give them, in interleaved repetitions.
// Repetition 0 keeps response samples (for p50/p90) and is not timed; in the
// others each trial is bracketed by host-speed probes (probe.h), and the
// median of their scaled times times the cell. Every repetition must
// reproduce repetition 0 bit for bit. Trials run one after another: on a
// shared 4-vCPU virtual machine a second thread doubled the seed-to-seed
// spread.
//
// Traced: the harness re-implements the run_board_trial loop and the plain
// (no churn, no JIQ) run_multi_dispatcher_trial loop from the layers' public
// functions, reading the clock once per stage boundary. Each traced trial is
// checked bit for bit against run_trial on the same config and seed, and the
// two wall times give the trace overhead.
#include <unistd.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dispatch/dispatcher_set.h"
#include "driver/experiment.h"
#include "driver/multi_dispatcher.h"
#include "driver/trial_workload.h"
#include "fault/fault_spec.h"
#include "harness/probe.h"
#include "harness/procs.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "health/churn_spec.h"
#include "loadinfo/continuous_view.h"
#include "loadinfo/individual_board.h"
#include "loadinfo/periodic_board.h"
#include "policy/policy_factory.h"
#include "queueing/cluster.h"
#include "queueing/load_stats.h"
#include "queueing/metrics.h"
#include "sim/rng.h"

namespace bench {
namespace {

namespace driver = stale::driver;
using driver::ExperimentConfig;
using driver::TrialResult;
using driver::UpdateModel;

struct SimCell {
  std::string name;
  ExperimentConfig config;
  // Single-thread arrivals per host second on the seed commit. Only sizes
  // the job counts, so a run measures for about --seconds; the counts are a
  // pure function of --seconds, which keeps every result reproducible.
  double rate;
};

ExperimentConfig paper_config(UpdateModel model) {
  ExperimentConfig config;
  config.num_servers = 100;
  config.lambda = 0.9;
  config.update_interval = 4.0;
  config.model = model;
  config.policy = "basic_li";
  config.board_repr = stale::policy::BoardRepr::kVector;
  config.trials = 2;
  return config;
}

std::vector<SimCell> cells_for(const std::string& workload) {
  if (workload == "sim-paper-n100") {
    ExperimentConfig fault = paper_config(UpdateModel::kPeriodic);
    fault.fault = stale::fault::FaultSpec::parse("crash=0.001,loss=0.2");
    ExperimentConfig churn = paper_config(UpdateModel::kPeriodic);
    churn.churn = stale::health::ChurnSpec::parse(
        "restart=25,restartdown=2,suspect=2T,evict=4T,coverage=0.5,"
        "fallback=random");
    return {
        {"periodic", paper_config(UpdateModel::kPeriodic), 840e3},
        {"continuous", paper_config(UpdateModel::kContinuous), 160e3},
        {"individual", paper_config(UpdateModel::kIndividual), 250e3},
        {"update_on_access", paper_config(UpdateModel::kUpdateOnAccess),
         200e3},
        {"fault", fault, 620e3},
        {"churn", churn, 580e3},
    };
  }
  if (workload == "sim-large-d4") {
    ExperimentConfig config;
    config.num_servers = 100000;
    config.lambda = 0.9;
    config.update_interval = 0.25;
    config.model = UpdateModel::kPeriodic;
    config.policy = "basic_li";
    config.board_repr = stale::policy::BoardRepr::kBucketed;
    config.dispatchers = 4;
    config.trials = 1;
    return {{"d4", config, 1.1e6}};
  }
  throw std::invalid_argument("not a simulator workload: " + workload);
}

bool large(const std::vector<SimCell>& cells) {
  return cells.front().config.num_servers > 1000;
}

ExperimentConfig sized(const SimCell& cell, double slice_s,
                       std::uint64_t seed) {
  ExperimentConfig config = cell.config;
  config.num_jobs = std::max<std::uint64_t>(
      4000, static_cast<std::uint64_t>(std::llround(cell.rate * slice_s)));
  config.warmup_jobs = config.num_jobs / 4;
  config.base_seed = seed;
  return config;
}

// One trial as driver::run_experiment runs it (seed from the base seed and
// the trial index), timed. With a probe, the trial is bracketed by two probe
// runs and its time is also scaled to the probe's nominal host speed.
struct TimedTrial {
  TrialResult result;
  double wall_s = 0.0;
  double probe_s = 0.0;
  double scaled_s = 0.0;
};

TimedTrial run_timed_trial(const ExperimentConfig& config, int trial,
                           const ProbeShape* probe) {
  TimedTrial timed;
  const double before = probe != nullptr ? run_probe(*probe) : 0.0;
  const std::int64_t start = now_ns();
  timed.result = driver::run_trial(
      config, stale::sim::trial_seed(config.base_seed, trial));
  timed.wall_s = seconds_between(start, now_ns());
  if (probe != nullptr) {
    timed.probe_s = (before + run_probe(*probe)) / 2.0;
    timed.scaled_s = timed.wall_s * probe->nominal_s / timed.probe_s;
  }
  return timed;
}

// The per-trial correctness rule: every measured job accounted for, and a
// mean response between the bare service time and the M/M/1 mean at this
// load (any dispatcher doing worse than independent random queues is broken).
void check_trial(const std::string& cell, const ExperimentConfig& config,
                 const TrialResult& result, Report& report) {
  const std::uint64_t expected = config.num_jobs - config.warmup_jobs;
  // Fault and churn trials record at completion: a job that exhausted its
  // retries or died with its server never completes.
  const std::uint64_t lost =
      result.faults.jobs_dropped + result.faults.jobs_lost;
  const bool counted = config.fault.any() || config.churn.any()
                           ? result.measured_jobs <= expected &&
                                 result.measured_jobs + lost >= expected
                           : result.measured_jobs == expected;
  report.check(counted, cell + ": measured_jobs " +
                            std::to_string(result.measured_jobs) +
                            " for expected " + std::to_string(expected));
  const double ceiling = 1.0 / (1.0 - config.lambda);
  report.check(std::isfinite(result.mean_response) &&
                   result.mean_response > 1.0 &&
                   result.mean_response < ceiling,
               cell + ": mean_response " + format_number(result.mean_response) +
                   " outside (1, " + format_number(ceiling) + ")");
}

std::uint64_t fnv1a(std::uint64_t hash, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (bits >> (8 * byte)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// "workload seconds seed digest" lines recorded on the seed commit in
// sim_digests.txt, whose path the build compiles in ('#' starts a comment).
std::string baseline_digest(const RunOptions& options) {
  std::ifstream in(SIM_DIGESTS);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload, digest;
    double seconds = 0.0;
    std::uint64_t seed = 0;
    if (line.empty() || line[0] == '#' ||
        !(fields >> workload >> seconds >> seed >> digest)) {
      continue;
    }
    if (workload == options.workload && seconds == options.seconds &&
        seed == options.seed) {
      return digest;
    }
  }
  return "";
}

void run_untraced(const RunOptions& options, const std::vector<SimCell>& cells,
                  Report& report) {
  const ProbeShape probe = probe_for(cells.front().config.num_servers);

  // Set-up: a 1-arrival run of every trial of every cell, summed. A
  // repetition averages several such rounds (a paper-scale round takes only
  // half a millisecond) and is scaled to the probe's host speed like the
  // throughput below, from the probe runs on either side of it; set-up time
  // is the median repetition. One unrecorded round first warms the caches.
  const auto setup_round = [&] {
    double sum = 0.0;
    for (const SimCell& cell : cells) {
      ExperimentConfig config = cell.config;
      config.base_seed = options.seed;
      config.num_jobs = 1;
      config.warmup_jobs = 0;
      for (int t = 0; t < config.trials; ++t) {
        sum += run_timed_trial(config, t, nullptr).wall_s;
      }
    }
    return sum;
  };
  const int setup_reps = large(cells) ? 7 : 15;
  const int rounds = large(cells) ? 1 : 8;
  std::vector<double> setups, setups_unscaled;
  setup_round();
  double before = run_probe(probe);
  for (int rep = 0; rep < setup_reps; ++rep) {
    double sum = 0.0;
    for (int round = 0; round < rounds; ++round) sum += setup_round();
    const double after = run_probe(probe);
    setups_unscaled.push_back(sum / rounds);
    setups.push_back(sum / rounds * probe.nominal_s / ((before + after) / 2.0));
    before = after;
  }
  report.set("setup_s", median(setups));
  report.detail("setup_s_unscaled", median(setups_unscaled), "s");

  // Repetition 0 keeps response samples and is not timed; the others are
  // timed, probe-bracketed trial by trial, and must reproduce it. Many short
  // trials track the host's speed better than a few long ones.
  const int reps = large(cells) ? 11 : 9;
  const std::size_t count = cells.size();
  const double trials = cells.front().config.trials;
  const double slice_s =
      options.seconds * 0.85 / (reps * static_cast<double>(count) * trials);
  std::vector<std::vector<double>> walls(count), scaled(count);
  std::vector<std::vector<std::uint64_t>> bits(count);
  std::vector<double> rates, p50s, p90s, probes;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const std::int64_t start = now_ns();
  for (int rep = 0; rep < reps; ++rep) {
    // On a host slowed down well past the sizing rate, stop after two timed
    // repetitions rather than overrun the run's time (job counts, and so
    // every simulated result, stay fixed).
    if (rep > 2 && seconds_between(start, now_ns()) > 0.9 * options.seconds) {
      report.note("host slow: stopped after " + std::to_string(rep - 1) +
                  " timed repetitions");
      break;
    }
    for (std::size_t c = 0; c < count; ++c) {
      const SimCell& cell = cells[c];
      ExperimentConfig config = sized(cell, slice_s, options.seed);
      config.keep_response_samples = rep == 0;
      double wall = 0.0, scaled_sum = 0.0, p50 = 0.0, p90 = 0.0;
      for (int t = 0; t < config.trials; ++t) {
        const TimedTrial timed =
            run_timed_trial(config, t, rep == 0 ? nullptr : &probe);
        const TrialResult& result = timed.result;
        report.attempt(1);
        check_trial(cell.name, config, result, report);
        const auto mean_bits = std::bit_cast<std::uint64_t>(result.mean_response);
        if (rep == 0) {
          bits[c].push_back(mean_bits);
          digest = fnv1a(digest, result.mean_response);
          report.detail("mean_response." + cell.name + "." + std::to_string(t),
                        result.mean_response, "svc");
          p50 += result.p50_response / config.trials;
          p90 += result.p90_response / config.trials;
          continue;
        }
        report.check(mean_bits == bits[c][static_cast<std::size_t>(t)],
                     cell.name + ": repetition " + std::to_string(rep) +
                         " differs from repetition 0");
        wall += timed.wall_s;
        scaled_sum += timed.scaled_s;
        probes.push_back(timed.probe_s);
      }
      if (rep == 0) {
        p50s.push_back(p50);
        p90s.push_back(p90);
      } else {
        walls[c].push_back(wall);
        scaled[c].push_back(scaled_sum);
      }
    }
  }

  for (std::size_t c = 0; c < count; ++c) {
    const ExperimentConfig config = sized(cells[c], slice_s, options.seed);
    const double arrivals =
        static_cast<double>(config.num_jobs) * config.trials;
    rates.push_back(arrivals / median(scaled[c]));
    const std::string& name = cells[c].name;
    report.detail("jobs_per_s." + name, rates.back(), "1/s");
    report.detail("jobs_per_s_unscaled." + name, arrivals / median(walls[c]),
                  "1/s");
    report.detail("p50_response." + name, p50s[c], "svc");
    report.detail("p90_response." + name, p90s[c], "svc");
    report.detail("jobs." + name, arrivals, "count");
  }
  report.detail("host.probe_s", median(probes), "s");
  report.set("jobs_per_s", geomean(rates));
  report.set("p50_response", geomean(p50s));
  report.set("p90_response", geomean(p90s));
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of whatever
  // process image exec'd the harness (run.py's Python) and would report it.
  report.set("peak_rss_mb", process_peak_rss_mb(getpid()));

  const std::string ours = hex(digest);
  const std::string theirs = baseline_digest(options);
  report.note("response digest " + ours +
              (theirs.empty()   ? " (no seed-commit digest for this run)"
               : theirs == ours ? " (bit-identical to the seed commit)"
                                : " (DIFFERS from the seed commit " + theirs +
                                      ")"));
}

// ---------------------------------------------------------------------------
// Traced mirrors.

enum Stage {
  kArrival,
  kSync,
  kSplit,
  kSelect,
  kSize,
  kAdvance,
  kObserve,
  kAssign,
  kStages
};

// Stage totals plus the raw spans of the first arrivals. lap() closes the
// running stage at one clock read; the next stage starts at that read.
class StageTimer {
 public:
  StageTimer(SpanLog* spans, int track, const char* const* names)
      : spans_(spans), track_(track), names_(names) {}

  void begin(std::uint64_t arrival) {
    arrival_ = arrival;
    recording_ = spans_ != nullptr && arrival < kRawSpanLimit;
    first_ = last_ = now_ns();
  }
  void lap(Stage stage) {
    const std::int64_t now = now_ns();
    totals[stage] += now - last_;
    if (recording_) {
      spans_->add(track_, names_[stage], "arrival", arrival_, last_, now);
    }
    last_ = now;
  }
  void end() {
    if (recording_) {
      spans_->add(track_, "arrival", nullptr, arrival_, first_, last_);
    }
  }

  std::array<std::int64_t, kStages> totals{};

 private:
  SpanLog* spans_;
  int track_;
  const char* const* names_;
  std::uint64_t arrival_ = 0;
  bool recording_ = false;
  std::int64_t first_ = 0;
  std::int64_t last_ = 0;
};

constexpr const char* kBoardStageNames[kStages] = {
    "workload.arrival", "loadinfo.sync",    "dispatch.split",
    "policy.select",    "workload.size",    "queueing.advance",
    "queueing.observe", "queueing.assign"};
constexpr const char* kMultiStageNames[kStages] = {
    "workload.arrival", "dispatch.sync",    "dispatch.split",
    "policy.select",    "workload.size",    "queueing.advance",
    "queueing.observe", "queueing.assign"};

struct TracedTrial {
  TrialResult result;
  std::array<std::int64_t, kStages> stage_ns{};
  std::uint64_t arrivals = 0;
  std::uint64_t entries_published = 0;  // board entries made visible
  std::uint64_t version_changes = 0;    // decisions on a new info_version
  // Post-warmup decisions, for the dispatch-spread and age analysis.
  std::vector<double> times;
  std::vector<int> servers;
  std::vector<double> ages;
  double wall_s = 0.0;
};

void finish(TracedTrial& traced, const stale::queueing::ResponseMetrics& m,
            const stale::queueing::LoadImbalanceStats& imbalance, double t,
            std::int64_t start) {
  traced.result.mean_response = m.mean_response();
  traced.result.measured_jobs = m.measured_jobs();
  traced.result.total_jobs = m.total_jobs();
  traced.result.sim_end_time = t;
  traced.result.mean_queue_stddev = imbalance.mean_within_snapshot_stddev();
  traced.result.mean_queue_max = imbalance.mean_snapshot_max();
  traced.result.mean_queue_length = imbalance.mean_queue_length();
  traced.wall_s = seconds_between(start, now_ns());
}

void reserve_decisions(TracedTrial& traced, const ExperimentConfig& config) {
  const std::size_t measured = config.num_jobs - config.warmup_jobs;
  traced.times.reserve(measured);
  traced.servers.reserve(measured);
  traced.ages.reserve(measured);
}

// The run_board_trial loop (driver/experiment.cpp) for plain vector-board
// configs, in the same draw order, with a clock read at each stage boundary.
TracedTrial traced_board_trial(const ExperimentConfig& config,
                               std::uint64_t seed, SpanLog* spans, int track) {
  if (config.resolved_bucketed() || config.fault.any() || config.churn.any() ||
      config.rate_estimator != "told" ||
      config.model == UpdateModel::kUpdateOnAccess ||
      driver::uses_multi_dispatcher(config)) {
    throw std::logic_error("traced_board_trial: unsupported config");
  }
  const std::int64_t start = now_ns();
  TracedTrial traced;
  reserve_decisions(traced, config);
  stale::sim::Rng rng(seed);
  const bool continuous = config.model == UpdateModel::kContinuous;
  const double history_window =
      continuous ? stale::loadinfo::ContinuousView::history_window_for(
                       config.delay_kind, config.update_interval)
                 : 0.0;
  stale::queueing::Cluster cluster(config.num_servers, history_window);
  stale::queueing::ResponseMetrics metrics(config.warmup_jobs,
                                           config.keep_response_samples);
  const auto policy = stale::policy::make_policy(config.policy);
  driver::TrialWorkload workload = driver::make_trial_workload(config);
  const double believed_rate = config.believed_total_rate();
  stale::loadinfo::PeriodicBoard board(config.num_servers,
                                       config.update_interval);
  stale::sim::Rng offsets_rng = rng.split();
  stale::loadinfo::IndividualBoard individual(
      config.num_servers, config.update_interval, offsets_rng);
  stale::loadinfo::ContinuousView view(
      config.delay_kind, config.update_interval, config.know_actual_age);
  stale::queueing::LoadImbalanceStats imbalance;

  const auto version = [&] {
    switch (config.model) {
      case UpdateModel::kPeriodic:
        return board.version();
      case UpdateModel::kIndividual:
        return individual.version();
      default:
        return view.version();
    }
  };
  // A periodic publish and a materialized continuous view make all n entries
  // visible; an individual heartbeat makes one.
  const std::uint64_t entries_per_version =
      config.model == UpdateModel::kIndividual
          ? 1
          : static_cast<std::uint64_t>(config.num_servers);
  const std::uint64_t first_version = version();
  std::uint64_t last_seen = 0;

  StageTimer timer(spans, track, kBoardStageNames);
  double t = 0.0;
  for (std::uint64_t job = 0; job < config.num_jobs; ++job) {
    timer.begin(job);
    t += workload.arrivals->next_gap(rng);
    timer.lap(kArrival);

    stale::policy::DispatchContext context;
    context.lambda_total = believed_rate;
    switch (config.model) {
      case UpdateModel::kPeriodic:
        board.sync(cluster, t);
        context.loads = board.loads();
        context.age = board.age(t);
        context.phase_length = board.phase_length();
        context.phase_elapsed = context.age;
        context.info_version = board.version();
        break;
      case UpdateModel::kIndividual:
        individual.sync(cluster, t);
        context.loads = individual.loads();
        context.age = individual.mean_age(t);
        context.info_version = individual.version();
        break;
      default:
        cluster.advance_to(t);
        view.observe(cluster, t, rng);
        context.loads = view.loads();
        context.age = view.reported_age();
        context.info_version = view.version();
        break;
    }
    timer.lap(kSync);

    const int server = policy->select(context, rng);
    timer.lap(kSelect);
    const double size = workload.sizes->sample(rng);
    timer.lap(kSize);
    cluster.advance_to(t);
    timer.lap(kAdvance);
    const bool measured = job >= config.warmup_jobs;
    if (measured) imbalance.observe(cluster.loads());
    timer.lap(kObserve);
    const double departure = cluster.assign(t, server, size);
    metrics.record(departure - t);
    timer.lap(kAssign);
    timer.end();

    if (context.info_version != last_seen) {
      ++traced.version_changes;
      last_seen = context.info_version;
    }
    if (measured) {
      traced.times.push_back(t);
      traced.servers.push_back(server);
      traced.ages.push_back(context.age);
    }
  }
  traced.stage_ns = timer.totals;
  traced.arrivals = config.num_jobs;
  traced.entries_published = (version() - first_version) * entries_per_version;
  finish(traced, metrics, imbalance, t, start);
  return traced;
}

// The run_multi_dispatcher_trial loop (driver/multi_dispatcher.cpp) for its
// plain path — no churn, no JIQ — in the same draw order.
TracedTrial traced_multi_trial(const ExperimentConfig& config,
                               std::uint64_t seed, SpanLog* spans, int track) {
  if (!driver::uses_multi_dispatcher(config) || config.churn.any() ||
      config.fault.any() || config.rate_estimator != "told" ||
      config.policy.rfind("jiq", 0) == 0) {
    throw std::logic_error("traced_multi_trial: unsupported config");
  }
  const std::int64_t start = now_ns();
  TracedTrial traced;
  reserve_decisions(traced, config);
  const int D = config.dispatchers;
  const auto n = static_cast<std::size_t>(config.num_servers);
  const bool use_individual = config.model == UpdateModel::kIndividual;
  const bool bucketed = config.resolved_bucketed();

  stale::sim::Rng rng(seed);
  stale::queueing::Cluster cluster(std::vector<double>(n, 1.0), 0.0);
  stale::queueing::ResponseMetrics metrics(config.warmup_jobs,
                                           config.keep_response_samples);
  std::vector<stale::policy::PolicyPtr> policies;
  for (int d = 0; d < D; ++d) {
    policies.push_back(stale::policy::make_policy(config.policy));
  }
  driver::TrialWorkload workload = driver::make_trial_workload(config);
  const double believed_rate = config.believed_total_rate();
  stale::dispatch::DispatcherSet boards(D, config.num_servers,
                                        config.update_interval, use_individual,
                                        rng);
  stale::dispatch::ArrivalSplitter splitter(D, config.dispatcher_split);
  if (bucketed) {
    boards.enable_level_index();
    cluster.enable_lazy_advance();
  }
  std::vector<stale::sim::Rng> policy_rngs;
  if (D > 1) {
    for (int d = 0; d < D; ++d) policy_rngs.push_back(rng.split());
  }
  stale::queueing::LoadImbalanceStats imbalance;

  std::vector<std::uint64_t> first_version(static_cast<std::size_t>(D));
  std::vector<std::uint64_t> last_seen(static_cast<std::size_t>(D), 0);
  for (int d = 0; d < D; ++d) first_version[d] = boards.version(d);

  StageTimer timer(spans, track, kMultiStageNames);
  double t = 0.0;
  for (std::uint64_t job = 0; job < config.num_jobs; ++job) {
    timer.begin(job);
    t += workload.arrivals->next_gap(rng);
    timer.lap(kArrival);
    boards.sync_all_to(cluster, t);
    timer.lap(kSync);
    const int d = D > 1 ? splitter.pick(rng) : 0;
    const auto di = static_cast<std::size_t>(d);
    stale::sim::Rng& policy_rng = D > 1 ? policy_rngs[di] : rng;
    timer.lap(kSplit);

    stale::policy::DispatchContext context;
    context.lambda_total = believed_rate;
    context.loads = boards.loads(d);
    context.age = boards.age(d, t);
    if (!use_individual) {
      context.phase_length = config.update_interval;
      context.phase_elapsed = context.age;
    }
    context.info_version = boards.version(d);
    if (bucketed) context.levels = &boards.level_index(d);
    const int server = policies[di]->select(context, policy_rng);
    timer.lap(kSelect);

    cluster.advance_to(t);
    timer.lap(kAdvance);
    const bool measured = job >= config.warmup_jobs;
    if (measured) {
      if (bucketed) {
        imbalance.observe(cluster.level_histogram());
      } else {
        imbalance.observe(cluster.loads());
      }
    }
    timer.lap(kObserve);
    const double size = workload.sizes->sample(rng);
    timer.lap(kSize);
    const double departure = cluster.assign(t, server, size);
    metrics.record(departure - t);
    timer.lap(kAssign);
    timer.end();

    if (context.info_version != last_seen[di]) {
      ++traced.version_changes;
      last_seen[di] = context.info_version;
    }
    if (measured) {
      traced.times.push_back(t);
      traced.servers.push_back(server);
      traced.ages.push_back(context.age);
    }
  }
  traced.stage_ns = timer.totals;
  traced.arrivals = config.num_jobs;
  const std::uint64_t entries_per_version = use_individual ? 1 : n;
  for (int d = 0; d < D; ++d) {
    traced.entries_published +=
        (boards.version(d) - first_version[d]) * entries_per_version;
  }
  finish(traced, metrics, imbalance, t, start);
  return traced;
}

void run_traced(const RunOptions& options, const std::vector<SimCell>& all,
                Report& report) {
  std::vector<SimCell> cells;
  for (const SimCell& cell : all) {
    const ExperimentConfig& c = cell.config;
    if (c.model != UpdateModel::kUpdateOnAccess && !c.fault.any() &&
        !c.churn.any()) {
      cells.push_back(cell);
    }
  }
  const bool multi = large(cells);
  const int reps = multi ? 2 : 3;
  const double slice_s = options.seconds * (multi ? 0.14 : 0.04);
  const std::uint64_t seed = stale::sim::trial_seed(options.seed, 0);

  SpanLog spans;
  struct PerCell {
    std::vector<double> untraced_s, traced_s;
    std::array<std::vector<double>, kStages> stage_ns;  // per arrival, per rep
    TracedTrial first;
  };
  std::vector<PerCell> per(cells.size());
  std::vector<int> tracks;
  for (const SimCell& cell : cells) tracks.push_back(spans.add_track(cell.name));

  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      ExperimentConfig config = sized(cells[c], slice_s, options.seed);
      config.trials = 1;
      const std::int64_t start = now_ns();
      const TrialResult reference = driver::run_trial(config, seed);
      per[c].untraced_s.push_back(seconds_between(start, now_ns()));

      SpanLog* log = rep == 0 ? &spans : nullptr;
      TracedTrial traced =
          multi ? traced_multi_trial(config, seed, log, tracks[c])
                : traced_board_trial(config, seed, log, tracks[c]);
      per[c].traced_s.push_back(traced.wall_s);
      report.attempt(1);
      const auto same = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
      };
      report.check(same(traced.result.mean_response, reference.mean_response) &&
                       same(traced.result.mean_queue_stddev,
                            reference.mean_queue_stddev) &&
                       traced.result.measured_jobs == reference.measured_jobs,
                   cells[c].name + ": traced loop differs from run_trial (" +
                       format_number(traced.result.mean_response) + " vs " +
                       format_number(reference.mean_response) + ")");
      check_trial(cells[c].name, config, traced.result, report);
      for (int s = 0; s < kStages; ++s) {
        per[c].stage_ns[s].push_back(static_cast<double>(traced.stage_ns[s]) /
                                     static_cast<double>(traced.arrivals));
      }
      if (rep == 0) per[c].first = std::move(traced);
    }
  }

  // Per cell, then combined over cells (geometric mean; the overhead, which
  // may be negative within noise, by arithmetic mean).
  std::vector<double> workload_ns, sync_ns, select_ns, queueing_ns, lb_ns,
      publishes, recompute, age50, age99, herd, share;
  double overhead_sum = 0.0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::string& name = cells[c].name;
    const PerCell& p = per[c];
    std::array<double, kStages> stage{};
    for (int s = 0; s < kStages; ++s) {
      stage[s] = median(p.stage_ns[s]);
      const char* label = (multi ? kMultiStageNames : kBoardStageNames)[s];
      if (stage[s] > 0.0) {  // one dispatcher: no split stage
        report.detail(std::string(label) + "_ns." + name, stage[s], "ns");
      }
    }
    workload_ns.push_back(stage[kArrival] + stage[kSize]);
    sync_ns.push_back(stage[kSync]);
    select_ns.push_back(stage[kSplit] + stage[kSelect]);
    queueing_ns.push_back(stage[kAdvance] + stage[kObserve] + stage[kAssign]);
    lb_ns.push_back(stage[kSync] + stage[kSplit] + stage[kSelect]);

    const TracedTrial& first = p.first;
    const auto arrivals = static_cast<double>(first.arrivals);
    publishes.push_back(1000.0 * first.entries_published / arrivals);
    recompute.push_back(first.version_changes / arrivals);
    age50.push_back(percentile(first.ages, 0.50));
    age99.push_back(percentile(first.ages, 0.99));
    const DispatchSpread spread =
        dispatch_spread(first.times, first.servers,
                        cells[c].config.num_servers,
                        cells[c].config.update_interval);
    herd.push_back(spread.herd_concentration);
    share.push_back(spread.share_max);
    const double overhead =
        100.0 * (median(p.traced_s) / median(p.untraced_s) - 1.0);
    overhead_sum += overhead;
    report.detail("loadinfo.publishes_per_karrival." + name, publishes.back(),
                  "count");
    report.detail("policy.recompute_ratio." + name, recompute.back(), "ratio");
    report.detail("policy.herd_concentration." + name, herd.back(), "ratio");
    report.detail("trace.overhead_pct." + name, overhead, "%");
  }
  report.set("workload.ns_per_job", geomean(workload_ns));
  report.set("loadinfo.sync_ns", geomean(sync_ns));
  report.set("policy.select_ns", geomean(select_ns));
  report.set("queueing.ns_per_job", geomean(queueing_ns));
  report.set("lb.ns_per_job", geomean(lb_ns));
  report.set("loadinfo.publishes_per_karrival", geomean(publishes));
  report.set("policy.recompute_ratio", geomean(recompute));
  report.set("loadinfo.info_age_p50", geomean(age50));
  report.set("loadinfo.info_age_p99", geomean(age99));
  report.set("policy.herd_concentration", geomean(herd));
  report.set("policy.dispatch_share_max", geomean(share));
  report.set("trace.overhead_pct",
             overhead_sum / static_cast<double>(cells.size()));

  const std::string path = options.work_dir + "/" + options.workload +
                           ".trace.json";
  std::ofstream out(path);
  spans.write_chrome(out);
  report.note("wrote " + std::to_string(spans.size()) + " spans to " + path);
}

}  // namespace

void run_sim_workload(const RunOptions& options, Report& report) {
  const std::vector<SimCell> cells = cells_for(options.workload);
  if (options.traced) {
    run_traced(options, cells, report);
  } else {
    run_untraced(options, cells, report);
  }
}

}  // namespace bench
