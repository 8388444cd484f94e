#include "bench.h"

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <deque>
#include <mutex>

#include "service/spec.h"
#include "service/workload.h"
#include "trace.h"

namespace perfbench {

void Outcome::Fail(const std::string& why) {
  problems.push_back(why);
  std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
}

double Percentile(std::vector<double> values, double p) {
  return dbim::LatencyPercentile(std::move(values), p);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr &&
         std::sscanf(line, "VmHWM: %llu kB", &kib) != 1) {
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

bool SyncFile(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool synced = fsync(fd) == 0;
  return close(fd) == 0 && synced;
}

const char* InternName(const std::string& name) {
  static std::mutex mu;
  static std::deque<std::string> names;
  std::lock_guard<std::mutex> lock(mu);
  for (const std::string& known : names) {
    if (known == name) return known.c_str();
  }
  names.push_back(name);
  return names.back().c_str();
}

uint64_t SubSeed(uint64_t seed, uint64_t index) {
  // splitmix64 of (seed, index): independent streams per tenant/dataset.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + (index + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

dbim::SessionOptions FlagOptions(const std::vector<std::string>& flags) {
  std::vector<std::string> storage = {"perfbench"};
  storage.insert(storage.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  return dbim::SessionOptionsFromFlags(static_cast<int>(argv.size()),
                                       argv.data());
}

dbim::WireReport ToWireReport(size_t num_facts,
                              const dbim::BatchReport& report) {
  dbim::WireReport wire;
  wire.num_facts = num_facts;
  wire.num_minimal_subsets = report.num_minimal_subsets;
  wire.truncated = report.truncated;
  for (const dbim::MeasureResult& m : report.measures) {
    wire.measures.emplace_back(m.name, m.value);
  }
  return wire;
}

bool SameReport(const dbim::WireReport& a, const dbim::WireReport& b,
                std::string* why) {
  char buf[256];
  if (a.num_facts != b.num_facts) {
    std::snprintf(buf, sizeof(buf), "facts %zu vs %zu", a.num_facts,
                  b.num_facts);
    *why = buf;
    return false;
  }
  if (a.num_minimal_subsets != b.num_minimal_subsets) {
    std::snprintf(buf, sizeof(buf), "subsets %zu vs %zu",
                  a.num_minimal_subsets, b.num_minimal_subsets);
    *why = buf;
    return false;
  }
  if (a.truncated != b.truncated) {
    *why = "truncated flag differs";
    return false;
  }
  if (a.measures.size() != b.measures.size()) {
    *why = "measure count differs";
    return false;
  }
  for (size_t i = 0; i < a.measures.size(); ++i) {
    if (a.measures[i].first != b.measures[i].first ||
        !(a.measures[i].second == b.measures[i].second)) {
      std::snprintf(buf, sizeof(buf), "%s = %.17g vs %s = %.17g",
                    a.measures[i].first.c_str(), a.measures[i].second,
                    b.measures[i].first.c_str(), b.measures[i].second);
      *why = buf;
      return false;
    }
  }
  return true;
}

void AddSolveSpans(const std::vector<dbim::MeasureResult>& results,
                   uint64_t start_ns) {
  ThreadTrace* trace = CurrentTrace();
  if (trace == nullptr || !trace->enabled()) return;
  uint64_t at = start_ns;
  for (const dbim::MeasureResult& m : results) {
    const uint64_t end = at + static_cast<uint64_t>(m.seconds * 1e9);
    trace->AddClosed(InternName("measures.solve." + m.name), at, end);
    at = end;
  }
}

}  // namespace perfbench
