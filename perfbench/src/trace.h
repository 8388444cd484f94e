// Span recording for the traced benchmark runs.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (the library itself is not instrumented). Each
// replay thread owns one ThreadTrace, so recording never takes a lock; the
// spans stay in memory and are written out once, when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The root span of one replayed request. Its self time is bookkeeping of
/// the replay loop, so it counts toward the residual, not toward a layer.
inline constexpr const char* kRequestSpan = "request";

struct Span {
  const char* name = "";  // string literal or stable storage
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  // index into the same thread's spans, -1 = root
  uint64_t request = 0;
};

/// One thread's spans. A span's parent is the innermost span open on the
/// thread when it begins. A disabled trace records nothing, so the same
/// replay code serves the untraced baseline.
class ThreadTrace {
 public:
  explicit ThreadTrace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_request(uint64_t id) { request_ = id; }

  int32_t Begin(const char* name);
  void End(int32_t index);

  /// Records an already finished span as a child of the innermost open
  /// span: for intervals the library times itself (MeasureResult::seconds).
  void AddClosed(const char* name, uint64_t start_ns, uint64_t end_ns);

  /// The interval the thread's replay loop ran; spans cover part of it.
  void StartWall() { wall_start_ns_ = NowNs(); }
  void StopWall() { wall_end_ns_ = NowNs(); }
  uint64_t wall_ns() const { return wall_end_ns_ - wall_start_ns_; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t wall_start_ns_ = 0;
  uint64_t wall_end_ns_ = 0;
};

/// The trace the calling thread records into, or null. Lets callbacks the
/// library makes on the caller's thread (the durability hook) attach their
/// spans under the caller's open span.
ThreadTrace*& CurrentTrace();

class ScopedSpan {
 public:
  ScopedSpan(ThreadTrace* trace, const char* name)
      : trace_(trace != nullptr && trace->enabled() ? trace : nullptr),
        index_(trace_ != nullptr ? trace_->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
  int32_t index_;
};

/// Per-name totals over every span of the given traces. Self time is a
/// span's duration minus the part its children cover.
struct LayerTotals {
  std::vector<double> self_us;   // per span, in recording order
  std::vector<double> total_us;  // per span duration
};

std::map<std::string, LayerTotals> AggregateLayers(
    const std::vector<const ThreadTrace*>& traces);

/// Share of the traces' summed wall time that no layer span covers: the
/// replay loop's own work plus the self time of the request roots.
double ResidualFraction(const std::vector<const ThreadTrace*>& traces);

/// Writes every span as tab-separated text (thread, request, index,
/// parent, name, start_ns, end_ns). Returns false on an I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<const ThreadTrace*>& traces);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
