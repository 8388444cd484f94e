// perfbench — the repository's end-to-end and per-layer benchmark program.
//
//   perfbench --workload clean-loop|audit|ingest --seed N --seconds S
//             --trace 0|1 --work-dir DIR --trace-out FILE
//
// Prints one `metric <name> <value>` line per measured metric and a final
// `result <correct 0|1> <attempted> <failed>` line; perfbench/run.py turns
// them into the benchmark's JSON result. Exits 1 when an output check
// failed, 2 on bad arguments.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload clean-loop|audit|ingest "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "--trace-out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.work_dir.empty() || config.trace_path.empty() ||
      !(config.seconds > 0.0)) {
    return Usage();
  }
  // Replies to a closed socket must not kill the in-process daemon.
  std::signal(SIGPIPE, SIG_IGN);

  perfbench::Outcome outcome;
  if (config.workload == "clean-loop") {
    outcome = perfbench::RunCleanLoop(config);
  } else if (config.workload == "audit") {
    outcome = perfbench::RunAudit(config);
  } else if (config.workload == "ingest") {
    outcome = perfbench::RunIngest(config);
  } else {
    return Usage();
  }
  for (const auto& [name, value] : outcome.metrics) {
    std::printf("metric %s %.17g\n", name.c_str(), value);
  }
  std::printf("result %d %llu %llu\n", outcome.correct() ? 1 : 0,
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  return outcome.correct() ? 0 : 1;
}
