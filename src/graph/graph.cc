#include "graph/graph.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"

namespace dbim {

void SimpleGraph::AddEdge(uint32_t a, uint32_t b) {
  DBIM_CHECK(a != b);
  DBIM_CHECK(a < n_ && b < n_);
  if (a > b) std::swap(a, b);
  edges_.emplace_back(a, b);
}

void SimpleGraph::Normalize() {
  // Bucket the edges by their smaller endpoint (a counting sort), then sort
  // and dedup each small bucket: the order std::sort would give, in
  // O(n + m + sum d log d) instead of O(m log m).
  std::vector<uint32_t> first(n_ + 1, 0);
  for (const auto& [a, b] : edges_) ++first[a + 1];
  for (size_t v = 0; v < n_; ++v) first[v + 1] += first[v];
  std::vector<uint32_t> next(first.begin(), first.end() - 1);
  std::vector<uint32_t> second(edges_.size());
  for (const auto& [a, b] : edges_) second[next[a]++] = b;
  edges_.clear();
  for (uint32_t a = 0; a < n_; ++a) {
    const auto begin = second.begin() + first[a];
    const auto end = second.begin() + first[a + 1];
    std::sort(begin, end);
    for (auto it = begin; it != end; ++it) {
      if (it == begin || *it != *(it - 1)) edges_.emplace_back(a, *it);
    }
  }
}

std::vector<std::vector<uint32_t>> SimpleGraph::AdjacencyLists() const {
  std::vector<std::vector<uint32_t>> adj(n_);
  for (const auto& [a, b] : edges_) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  return adj;
}

std::pair<std::vector<uint32_t>, size_t> SimpleGraph::Components() const {
  std::vector<uint32_t> comp(n_, UINT32_MAX);
  const auto adj = AdjacencyLists();
  size_t count = 0;
  std::vector<uint32_t> stack;
  for (uint32_t s = 0; s < n_; ++s) {
    if (comp[s] != UINT32_MAX) continue;
    comp[s] = static_cast<uint32_t>(count);
    stack.push_back(s);
    while (!stack.empty()) {
      const uint32_t v = stack.back();
      stack.pop_back();
      for (const uint32_t w : adj[v]) {
        if (comp[w] == UINT32_MAX) {
          comp[w] = static_cast<uint32_t>(count);
          stack.push_back(w);
        }
      }
    }
    ++count;
  }
  return {std::move(comp), count};
}

SimpleGraph SimpleGraph::InducedSubgraph(
    const std::vector<uint32_t>& vertices) const {
  std::unordered_map<uint32_t, uint32_t> relabel;
  relabel.reserve(vertices.size());
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    relabel.emplace(vertices[i], i);
  }
  SimpleGraph out(vertices.size());
  for (const auto& [a, b] : edges_) {
    const auto ia = relabel.find(a);
    const auto ib = relabel.find(b);
    if (ia != relabel.end() && ib != relabel.end()) {
      out.AddEdge(ia->second, ib->second);
    }
  }
  out.Normalize();
  return out;
}

}  // namespace dbim
