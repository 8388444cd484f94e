#include "graph/max_flow.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace dbim {

MaxFlow::MaxFlow(size_t num_nodes) : num_nodes_(num_nodes) {}

void MaxFlow::AddEdge(uint32_t from, uint32_t to, double capacity) {
  DBIM_CHECK(from < num_nodes_ && to < num_nodes_);
  DBIM_CHECK(capacity >= 0.0);
  DBIM_CHECK_MSG(arcs_.empty(), "MaxFlow::AddEdge after Solve");
  edges_.push_back(Edge{from, to, capacity});
}

void MaxFlow::BuildArcs() {
  // Counting sort of both arcs of every edge by tail node. Edge i appends
  // its forward arc to `from` and then its zero-capacity reverse arc to
  // `to`, so each node's arcs come out in creation order.
  first_.assign(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) {
    ++first_[e.from + 1];
    ++first_[e.to + 1];
  }
  for (size_t v = 0; v < num_nodes_; ++v) first_[v + 1] += first_[v];
  DBIM_CHECK(first_[num_nodes_] <= std::numeric_limits<uint32_t>::max());
  arcs_.resize(first_[num_nodes_]);
  std::vector<uint32_t> next(first_.begin(), first_.end() - 1);
  for (const Edge& e : edges_) {
    const uint32_t forward = next[e.from]++;
    const uint32_t reverse = next[e.to]++;
    arcs_[forward] = Arc{e.to, reverse, e.cap};
    arcs_[reverse] = Arc{e.from, forward, 0.0};
  }
  edges_.clear();
  edges_.shrink_to_fit();
}

bool MaxFlow::Bfs(uint32_t s, uint32_t t) {
  level_.assign(num_nodes_, -1);
  queue_.clear();
  level_[s] = 0;
  queue_.push_back(s);
  for (size_t head = 0; head < queue_.size(); ++head) {
    const uint32_t v = queue_[head];
    for (uint32_t i = first_[v]; i < first_[v + 1]; ++i) {
      const Arc& e = arcs_[i];
      if (e.cap > kEps && level_[e.to] < 0) {
        level_[e.to] = level_[v] + 1;
        queue_.push_back(e.to);
      }
    }
  }
  return level_[t] >= 0;
}

double MaxFlow::Dfs(uint32_t v, uint32_t t, double pushed) {
  if (v == t) return pushed;
  for (uint32_t& i = iter_[v]; i < first_[v + 1]; ++i) {
    Arc& e = arcs_[i];
    if (e.cap <= kEps || level_[e.to] != level_[v] + 1) continue;
    const double got = Dfs(e.to, t, std::min(pushed, e.cap));
    if (got > kEps) {
      e.cap -= got;
      arcs_[e.rev].cap += got;
      return got;
    }
  }
  return 0.0;
}

double MaxFlow::Solve(uint32_t s, uint32_t t) {
  DBIM_CHECK(s != t);
  DBIM_CHECK(s < num_nodes_ && t < num_nodes_);
  DBIM_CHECK_MSG(arcs_.empty(), "MaxFlow::Solve called twice");
  BuildArcs();
  double flow = 0.0;
  while (Bfs(s, t)) {
    iter_.assign(first_.begin(), first_.end() - 1);
    while (true) {
      const double pushed =
          Dfs(s, t, std::numeric_limits<double>::infinity());
      if (pushed <= kEps) break;
      flow += pushed;
    }
  }
  return flow;
}

bool MaxFlow::SourceSide(uint32_t v) const {
  // level_ holds the last (failed) BFS labelling: reachable from s in the
  // residual network iff level >= 0.
  return level_[v] >= 0;
}

}  // namespace dbim
