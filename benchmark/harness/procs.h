// Child processes of the live workloads and what /proc says about them.
//
// Process hygiene: every child is registered the moment it is forked, dies
// with the harness (PR_SET_PDEATHSIG), and is killed and reaped by its
// owner's destructor, by kill_all_children() on a fatal signal, and at exit.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

class Child {
 public:
  // Starts argv[0] with stdout on a pipe the harness reads and stderr
  // appended to `log_path`. Throws std::runtime_error if it cannot start.
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  Child(Child&&) = delete;
  Child& operator=(Child&&) = delete;

  pid_t pid() const { return pid_; }

  // Next line of the child's stdout, or nullopt on EOF or after
  // `timeout_s` seconds without one.
  std::optional<std::string> read_line(double timeout_s);

  // SIGTERM, then SIGKILL if the child outlives `grace_s`; reaps it and
  // returns everything it still wrote to stdout. Idempotent.
  std::string stop(double grace_s);

 private:
  bool fill(double timeout_s);  // false on EOF or timeout

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  bool eof_ = false;
};

// Kills every live child with SIGKILL (async-signal-safe; used by the fatal
// signal handler). Children are reaped by their owners or by init.
void kill_all_children();

// Installs SIGINT/SIGTERM/SIGHUP handlers that kill every child and exit.
void install_child_cleanup();

// CPU seconds (user + system) from the text of /proc/<pid>/stat; nullopt if
// the line is malformed. The command name may hold spaces and parentheses,
// so fields are counted after the last ')'.
std::optional<double> parse_stat_cpu_seconds(std::string_view stat,
                                             long ticks_per_second);
// Run time from se.sum_exec_runtime (milliseconds, nanosecond resolution) in
// the text of /proc/<pid>/sched, in seconds; nullopt if absent.
std::optional<double> parse_sched_runtime_seconds(std::string_view sched);
// VmHWM (peak resident set) from the text of /proc/<pid>/status, in MiB.
std::optional<double> parse_vm_hwm_mb(std::string_view status);

// CPU seconds a process has used so far: /proc/<pid>/sched when the kernel
// provides it, else the 10 ms-tick stat counters. Throws if neither is
// readable.
double process_cpu_seconds(pid_t pid);
double process_peak_rss_mb(pid_t pid);

}  // namespace bench
