// Shared plumbing of the benchmark program: run configuration, the outcome
// every workload fills in, and small statistics helpers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measures/session.h"
#include "service/client.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    // scratch files of this run (created, removed)
  std::string trace_path;  // where the traced run writes its spans
};

/// What one run measured. A workload fills every end-to-end metric; in a
/// traced run it also fills the per-layer metrics of the layers it
/// reaches (run.py reports the rest as 0: that layer does no work there).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // why the run is not correct
  std::map<std::string, double> metrics;

  void Fail(const std::string& why);
  bool correct() const { return problems.empty(); }
};

Outcome RunCleanLoop(const RunConfig& config);
Outcome RunIngest(const RunConfig& config);
Outcome RunAudit(const RunConfig& config);

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

/// Starts a measured region's peak resident set: returns the heap's free
/// memory to the system, so garbage left by the input generator does not
/// count, and resets the kernel's high-water mark (VmHWM) to the current
/// resident set. False when the mark cannot be reset.
bool ResetPeakRss();

/// The kernel's resident-set high-water mark since ResetPeakRss, in MiB;
/// 0 when it cannot be read.
double PeakRssMb();

/// Flushes a file written before the run to disk, so that its write-back
/// does not fall into the measured run. False when it cannot.
bool SyncFile(const std::string& path);

/// Stable storage for a span name built at run time.
const char* InternName(const std::string& name);

/// Seed of the `index`-th independent input stream of a run.
uint64_t SubSeed(uint64_t seed, uint64_t index);

/// The session options dbimd and dbim_cli derive from these command-line
/// flags (SessionOptionsFromFlags); no flags gives the daemon's defaults.
dbim::SessionOptions FlagOptions(const std::vector<std::string>& flags);

/// A full measure report, as the wire carries it.
dbim::WireReport ToWireReport(size_t num_facts,
                              const dbim::BatchReport& report);

/// Exact equality (== on every double). On a mismatch, *why says where.
bool SameReport(const dbim::WireReport& a, const dbim::WireReport& b,
                std::string* why);

/// Spreads the per-measure times the library measured (MeasureResult::
/// seconds) as consecutive child spans "measures.solve.<name>" of the open
/// span, starting at `start_ns`.
void AddSolveSpans(const std::vector<dbim::MeasureResult>& results,
                   uint64_t start_ns);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
