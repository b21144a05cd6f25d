// Host-speed probe for the simulator throughput and the set-up times.
//
// On a shared virtual machine the same trial can take twice as long from
// one half-minute to the next while a plain arithmetic loop barely slows:
// neighbours contend for the core's caches and predictors, which hurts
// branchy, pointer-chasing simulation code most. The probe is a small
// self-contained stale-board simulation (FIFO queues on deques, exponential
// draws, a periodic board, two-choice dispatch) that is hurt the same way.
// Every timed trial or start-up is bracketed by two probe runs and its time
// is scaled by nominal_s over their mean, so it reads as on a host of fixed
// speed: the one at which the probe takes `nominal_s`. The probe is harness
// code and shares nothing with the repository, so no change to the
// repository can move it.
#pragma once

namespace bench {

struct ProbeShape {
  int servers;       // 100 for paper-scale cells, 10^5 for large-n ones
  long jobs;
  double nominal_s;  // its time on the quiet benchmark host (see README)
};

ProbeShape probe_for(int servers);

// Runs the probe once on the calling thread; returns its wall time.
double run_probe(const ProbeShape& shape);

}  // namespace bench
