// staleload_bench: runs one workload of the repo benchmark and prints every
// metric with its unit and direction, then one JSON result line.
//
//   staleload_bench --workload W --seed S [--seconds N] [--trace [0|1]]
//       [--out FILE] [--work-dir DIR] [--bin-dir DIR]
//
// --trace 1 runs the per-layer (traced) variant; the default is the
// end-to-end run. --bin-dir defaults to this executable's directory, where
// the benchmark build puts its staleload_lb and staleload_backend; traces and
// dispatcher recordings go to --work-dir (default BIN_DIR/runs).
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness/procs.h"
#include "harness/report.h"
#include "harness/workloads.h"

namespace {

const char* const kWorkloads[] = {"sim-paper-n100", "sim-large-d4",
                                  "live-forward", "live-herd"};

struct Cli {
  bench::RunOptions run;
  std::string out;  // optional copy of everything printed
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "staleload_bench: " << error << "\n"
            << "usage: staleload_bench --workload W --seed S [--seconds N]\n"
            << "  [--trace [0|1]] [--out FILE] [--work-dir DIR]\n"
            << "  [--bin-dir DIR]\n"
            << "workloads:";
  for (const char* name : kWorkloads) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

std::string executable_dir() {
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (n <= 0) return ".";
  std::string exe(path, static_cast<std::size_t>(n));
  return exe.substr(0, exe.rfind('/'));
}

Cli parse_args(int argc, char** argv) {
  Cli cli;
  bench::RunOptions& options = cli.run;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (flag == "--seed") {
        std::size_t used = 0;
        const std::string text = value();
        options.seed = std::stoull(text, &used);
        if (used != text.size()) usage("bad --seed '" + text + "'");
        have_seed = true;
      } else if (flag == "--seconds") {
        std::size_t used = 0;
        const std::string text = value();
        options.seconds = std::stod(text, &used);
        if (used != text.size() || !(options.seconds >= 1.0) ||
            options.seconds > 600.0) {
          usage("--seconds must be in [1, 600]");
        }
      } else if (flag == "--trace") {
        if (i + 1 < argc && (std::string(argv[i + 1]) == "0" ||
                             std::string(argv[i + 1]) == "1")) {
          options.traced = std::string(argv[++i]) == "1";
        } else {
          options.traced = true;
        }
      } else if (flag == "--out") {
        cli.out = value();
      } else if (flag == "--work-dir") {
        options.work_dir = value();
      } else if (flag == "--bin-dir") {
        options.bin_dir = value();
      } else {
        usage("unknown flag '" + flag + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  bool known = false;
  for (const char* name : kWorkloads) known = known || options.workload == name;
  if (!known) usage("unknown workload '" + options.workload + "'");
  if (options.bin_dir.empty()) options.bin_dir = executable_dir();
  if (options.work_dir.empty()) options.work_dir = options.bin_dir + "/runs";
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse_args(argc, argv);
  const bench::RunOptions& options = cli.run;
  bench::install_child_cleanup();
  try {
    ::mkdir(options.work_dir.c_str(), 0775);
    bench::Report report;
    report.note("workload " + options.workload + " seed " +
                std::to_string(options.seed) + " seconds " +
                bench::format_number(options.seconds) +
                (options.traced ? " traced (per-layer metrics)"
                                : " untraced (end-to-end metrics)"));
    if (options.workload.rfind("sim-", 0) == 0) {
      bench::run_sim_workload(options, report);
    } else {
      bench::run_live_workload(options, report);
    }
    std::ostringstream text;
    report.print(text, options.traced);
    if (!cli.out.empty()) {
      std::ofstream out(cli.out);
      out << text.str();
      if (!out) throw std::runtime_error("cannot write " + cli.out);
    }
    std::cout << text.str() << std::flush;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "staleload_bench: " << error.what() << "\n";
    return 1;
  }
}
