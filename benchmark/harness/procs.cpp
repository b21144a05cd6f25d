#include "harness/procs.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "harness/spans.h"

namespace bench {

namespace {

constexpr int kMaxChildren = 64;
std::atomic<pid_t> g_children[kMaxChildren];

void register_child(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void unregister_child(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void on_fatal_signal(int sig) {
  kill_all_children();
  _exit(128 + sig);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

void kill_all_children() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) kill(pid, SIGKILL);
  }
}

void install_child_cleanup() {
  struct sigaction action {};
  action.sa_handler = on_fatal_signal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGHUP, &action, nullptr);
  std::atexit(kill_all_children);
}

Child::Child(const std::vector<std::string>& argv,
             const std::string& log_path) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  const int null_fd = open("/dev/null", O_RDONLY | O_CLOEXEC);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(pipe_fds[1], STDOUT_FILENO);
    if (log_fd >= 0) dup2(log_fd, STDERR_FILENO);
    if (null_fd >= 0) dup2(null_fd, STDIN_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  if (log_fd >= 0) close(log_fd);
  if (null_fd >= 0) close(null_fd);
  if (pid < 0) {
    close(pipe_fds[0]);
    throw std::runtime_error("fork failed for " + argv.front());
  }
  register_child(pid);
  pid_ = pid;
  out_fd_ = pipe_fds[0];
}

Child::~Child() {
  stop(1.0);
  if (out_fd_ >= 0) close(out_fd_);
}

bool Child::fill(double timeout_s) {
  if (eof_) return false;
  pollfd p{out_fd_, POLLIN, 0};
  const int ms = static_cast<int>(std::max(0.0, timeout_s) * 1000.0);
  const int ready = poll(&p, 1, ms);
  if (ready <= 0) return false;
  char chunk[4096];
  const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
  if (n > 0) {
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
  if (n < 0 && errno == EINTR) return true;
  eof_ = true;
  return false;
}

std::optional<std::string> Child::read_line(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    const double left = deadline - now_s();
    if (left <= 0.0 || !fill(left)) {
      if (eof_ || now_s() >= deadline) return std::nullopt;
    }
  }
}

std::string Child::stop(double grace_s) {
  if (pid_ < 0) return "";
  kill(pid_, SIGTERM);
  const double deadline = now_s() + grace_s;
  int status = 0;
  bool reaped = false;
  while (!reaped) {
    // Keep draining stdout so a child writing its exit report never blocks
    // on a full pipe.
    fill(0.01);
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    reaped = done == pid_ || (done < 0 && errno == ECHILD);
    if (!reaped && now_s() >= deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      reaped = true;
    }
  }
  unregister_child(pid_);
  pid_ = -1;
  while (fill(1.0)) {
  }
  std::string rest;
  rest.swap(buffer_);
  return rest;
}

std::optional<double> parse_stat_cpu_seconds(std::string_view stat,
                                             long ticks_per_second) {
  const std::size_t close = stat.rfind(')');
  if (close == std::string_view::npos || ticks_per_second <= 0) {
    return std::nullopt;
  }
  std::istringstream fields(std::string(stat.substr(close + 1)));
  // After the command: state (field 3) ... utime (14), stime (15).
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int index = 3; index <= 15; ++index) {
    if (!(fields >> field)) return std::nullopt;
    if (index == 14 || index == 15) {
      char* end = nullptr;
      const unsigned long long value = std::strtoull(field.c_str(), &end, 10);
      if (end == field.c_str() || *end != '\0') return std::nullopt;
      (index == 14 ? utime : stime) = value;
    }
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(ticks_per_second);
}

std::optional<double> parse_sched_runtime_seconds(std::string_view sched) {
  const std::size_t at = sched.find("se.sum_exec_runtime");
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t colon = sched.find(':', at);
  if (colon == std::string_view::npos) return std::nullopt;
  const std::string rest(sched.substr(colon + 1, 40));
  char* end = nullptr;
  const double ms = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str() || !(ms >= 0.0)) return std::nullopt;
  return ms * 1e-3;
}

std::optional<double> parse_vm_hwm_mb(std::string_view status) {
  const std::size_t at = status.find("VmHWM:");
  if (at == std::string_view::npos) return std::nullopt;
  const std::string rest(status.substr(at + 6));
  char* end = nullptr;
  const unsigned long long kib = std::strtoull(rest.c_str(), &end, 10);
  if (end == rest.c_str()) return std::nullopt;
  return static_cast<double>(kib) / 1024.0;
}

double process_cpu_seconds(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  if (const auto s = parse_sched_runtime_seconds(read_file(base + "/sched"))) {
    return *s;
  }
  if (const auto s = parse_stat_cpu_seconds(read_file(base + "/stat"),
                                            sysconf(_SC_CLK_TCK))) {
    return *s;
  }
  throw std::runtime_error("cannot read CPU time of pid " +
                           std::to_string(pid));
}

double process_peak_rss_mb(pid_t pid) {
  const auto mb =
      parse_vm_hwm_mb(read_file("/proc/" + std::to_string(pid) + "/status"));
  if (!mb) {
    throw std::runtime_error("cannot read VmHWM of pid " + std::to_string(pid));
  }
  return *mb;
}

}  // namespace bench
