// The benchmark's four workloads (README.md says why each was chosen):
//   sim-paper-n100  the paper's regime, one cell per trial-engine path
//   sim-large-d4    n = 10^5 with four dispatchers, bucketed boards
//   live-forward    the live data path, 0.1 ms service, plus a rate ladder
//   live-herd       the live stack where staleness drives queueing
#pragma once

#include <cstdint>
#include <string>

#include "harness/report.h"

namespace bench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // how long the run measures
  bool traced = false;    // per-layer run instead of the end-to-end one
  std::string work_dir;   // run artifacts (trace files, LB recordings)
  std::string bin_dir;    // where staleload_lb / staleload_backend live
};

void run_sim_workload(const RunOptions& options, Report& report);
void run_live_workload(const RunOptions& options, Report& report);

}  // namespace bench
