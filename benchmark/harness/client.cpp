#include "harness/client.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <stdexcept>
#include <string>

#include "harness/spans.h"
#include "net/protocol.h"
#include "sim/distributions.h"
#include "sim/rng.h"

namespace bench {

namespace {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Waits for `events` on fd for at most `timeout_s` (nanosecond resolution).
int wait_fd(int fd, short events, double timeout_s) {
  pollfd p{fd, events, 0};
  timespec ts{};
  timeout_s = std::max(timeout_s, 0.0);
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
  const int ready = ppoll(&p, 1, &ts, nullptr);
  return ready > 0 ? p.revents : 0;
}

}  // namespace

Client::Client(const stale::net::Endpoint& dispatcher) {
  // Default timer slack would let each ppoll wake up to 50 us late.
  prctl(PR_SET_TIMERSLACK, 1UL);
  fd_ = stale::net::tcp_connect(dispatcher);
  if (wait_fd(fd_.get(), POLLOUT, 5.0) == 0) {
    throw std::runtime_error("client: connect to " + dispatcher.to_string() +
                             " timed out");
  }
  int error = 0;
  socklen_t size = sizeof(error);
  getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &error, &size);
  if (error != 0) {
    throw std::runtime_error("client: connect to " + dispatcher.to_string() +
                             " failed");
  }
}

void Client::send_due(double now, std::size_t last) {
  while (next_ < last && jobs_[next_].due <= now) {
    out_.append(stale::net::format_job(stale::net::JobMsg{next_}));
    jobs_[next_].sent = now;
    ++next_;
    ++sent_;
  }
  if (out_.wants_write() && !out_.flush(fd_.get())) {
    throw std::runtime_error("client: dispatcher connection lost on send");
  }
}

void Client::on_line(const std::string& line, double now, int num_backends) {
  std::uint64_t id = 0;
  int backend = -1;
  bool error = false;
  if (const auto done = stale::net::parse_client_done(line)) {
    id = done->id;
    backend = done->backend;
  } else if (line.rfind("ERR ", 0) == 0) {
    id = std::strtoull(line.c_str() + 4, nullptr, 10);
    error = true;
  } else {
    ++protocol_errors_;
    return;
  }
  if (id >= jobs_.size() || jobs_[id].sent < 0.0) {
    ++protocol_errors_;
    return;
  }
  ClientJob& job = jobs_[id];
  if (++job.replies > 1) {
    job.error = true;  // a second reply for one job
    return;
  }
  ++answered_;
  job.done = now;
  job.backend = backend;
  job.error = error || backend < 0 || backend >= num_backends;
}

void Client::receive(int num_backends) {
  char buffer[65536];
  for (;;) {
    const ssize_t n = recv(fd_.get(), buffer, sizeof(buffer), 0);
    if (n > 0) {
      in_.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error("client: dispatcher closed the connection");
  }
  const double now = now_s();
  std::string line;
  while (in_.next_line(&line)) on_line(line, now, num_backends);
}

RungRun Client::run_rung(double rate, double seconds, std::uint64_t seed,
                         double drain_s, int num_backends) {
  RungRun rung;
  const double cpu_start = thread_cpu_s();
  rung.first = jobs_.size();
  stale::sim::Rng rng(seed);
  const stale::sim::Exponential gap(1.0 / rate);
  std::vector<double> offsets;
  for (double t = gap.sample(rng); t < seconds; t += gap.sample(rng)) {
    offsets.push_back(t);
  }
  rung.start_s = now_s() + 1e-3;
  rung.end_s = rung.start_s + seconds;
  for (double offset : offsets) {
    jobs_.push_back(ClientJob{.due = rung.start_s + offset});
  }
  rung.last = jobs_.size();

  bool backlog_taken = false;
  for (;;) {
    const double now = now_s();
    send_due(now, rung.last);
    receive(num_backends);
    const bool all_sent = next_ == rung.last;
    if (all_sent && now >= rung.end_s) {
      if (!backlog_taken) {
        rung.backlog_end = static_cast<double>(outstanding());
        backlog_taken = true;
      }
      if (outstanding() == 0 || now >= rung.end_s + drain_s) break;
    }
    double wake = rung.end_s + drain_s;
    if (!all_sent) {
      wake = jobs_[next_].due;
    } else if (now < rung.end_s) {
      wake = rung.end_s;
    }
    const short events =
        static_cast<short>(POLLIN | (out_.wants_write() ? POLLOUT : 0));
    wait_fd(fd_.get(), events, wake - now_s());
  }
  rung.client_cpu_s = thread_cpu_s() - cpu_start;
  return rung;
}

}  // namespace bench
