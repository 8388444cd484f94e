#include "trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

int32_t ThreadTrace::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void ThreadTrace::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close innermost-first (they are scoped), so `index` is on top.
  open_.pop_back();
}

void ThreadTrace::AddClosed(const char* name, uint64_t start_ns,
                            uint64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

ThreadTrace*& CurrentTrace() {
  thread_local ThreadTrace* current = nullptr;
  return current;
}

namespace {

std::vector<uint64_t> ChildNs(const std::vector<Span>& spans) {
  std::vector<uint64_t> child(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  return child;
}

}  // namespace

std::map<std::string, LayerTotals> AggregateLayers(
    const std::vector<const ThreadTrace*>& traces) {
  std::map<std::string, LayerTotals> layers;
  for (const ThreadTrace* trace : traces) {
    const std::vector<Span>& spans = trace->spans();
    const std::vector<uint64_t> child = ChildNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const uint64_t total = spans[i].end_ns - spans[i].start_ns;
      const uint64_t self = total > child[i] ? total - child[i] : 0;
      LayerTotals& layer = layers[spans[i].name];
      layer.self_us.push_back(static_cast<double>(self) * 1e-3);
      layer.total_us.push_back(static_cast<double>(total) * 1e-3);
    }
  }
  return layers;
}

double ResidualFraction(const std::vector<const ThreadTrace*>& traces) {
  uint64_t wall = 0;
  uint64_t covered = 0;
  for (const ThreadTrace* trace : traces) {
    wall += trace->wall_ns();
    const std::vector<Span>& spans = trace->spans();
    const std::vector<uint64_t> child = ChildNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (std::strcmp(spans[i].name, kRequestSpan) == 0) continue;
      const uint64_t total = spans[i].end_ns - spans[i].start_ns;
      covered += total > child[i] ? total - child[i] : 0;
    }
  }
  if (wall == 0) return 1.0;
  return 1.0 - static_cast<double>(covered) / static_cast<double>(wall);
}

bool WriteSpans(const std::string& path,
                const std::vector<const ThreadTrace*>& traces) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\trequest\tindex\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t t = 0; t < traces.size(); ++t) {
    const std::vector<Span>& spans = traces[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f, "%zu\t%llu\t%zu\t%d\t%s\t%llu\t%llu\n", t,
                   static_cast<unsigned long long>(spans[i].request), i,
                   spans[i].parent, spans[i].name,
                   static_cast<unsigned long long>(spans[i].start_ns),
                   static_cast<unsigned long long>(spans[i].end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
