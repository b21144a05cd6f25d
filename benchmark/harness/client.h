// The benchmark's own open-loop load generator for the live workloads.
//
// One thread, one TCP connection to the dispatcher. Each rung is a seeded
// Poisson schedule of due times drawn before the rung starts; at every wakeup
// the client sends every job that is due, then sleeps in ppoll() at
// nanosecond resolution until the next due time or a reply. Each job is timed
// from its due time, not from when it was sent, so a stall in the client or
// the dispatcher charges every job it delays; how late the client itself ran
// is reported as the send lag.
//
// net::LoadGen is not reused: it sends one job per millisecond-rounded event
// loop timer, which caps it far below the rates the ladder needs.
#pragma once

#include <cstdint>
#include <vector>

#include "net/buffer.h"
#include "net/socket.h"

namespace bench {

struct ClientJob {
  double due = 0.0;    // steady-clock seconds
  double sent = -1.0;  // < 0: never sent
  double done = -1.0;  // < 0: no DONE yet
  int backend = -1;
  int replies = 0;     // DONE + ERR lines naming this job
  bool error = false;  // ERR, duplicate reply, or a backend out of range
};

struct RungRun {
  std::size_t first = 0;  // job index range [first, last)
  std::size_t last = 0;
  double start_s = 0.0;
  double end_s = 0.0;         // sending stops; the drain follows
  double backlog_end = 0.0;   // jobs sent but unanswered at end_s
  double client_cpu_s = 0.0;  // this thread, schedule draw through drain
};

class Client {
 public:
  // Connects to the dispatcher; throws std::runtime_error after 5 s.
  explicit Client(const stale::net::Endpoint& dispatcher);

  // Draws a Poisson schedule of `rate` jobs/s over `seconds` from `seed`,
  // starting now, and runs it open-loop; then reads replies until every job
  // of the rung is answered or `drain_s` has passed since sending stopped.
  // Throws std::runtime_error if the connection fails.
  RungRun run_rung(double rate, double seconds, std::uint64_t seed,
                   double drain_s, int num_backends);

  const std::vector<ClientJob>& jobs() const { return jobs_; }
  std::uint64_t protocol_errors() const { return protocol_errors_; }
  std::size_t outstanding() const { return sent_ - answered_; }

 private:
  void send_due(double now, std::size_t last);
  void receive(int num_backends);
  void on_line(const std::string& line, double now, int num_backends);

  stale::net::Fd fd_;
  stale::net::LineBuffer in_;
  stale::net::WriteBuffer out_;
  std::vector<ClientJob> jobs_;
  std::size_t next_ = 0;  // first job not yet sent
  std::size_t sent_ = 0;
  std::size_t answered_ = 0;
  std::uint64_t protocol_errors_ = 0;
};

}  // namespace bench
