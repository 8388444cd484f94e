#include "measures/repair_instance.h"

#include <algorithm>

namespace dbim {

RepairInstance RepairInstance::Build(const ConflictGraph& cg) {
  RepairInstance inst;
  std::vector<uint32_t> relabel(cg.num_vertices(), UINT32_MAX);
  for (uint32_t v = 0; v < cg.num_vertices(); ++v) {
    if (cg.self_inconsistent()[v]) {
      inst.forced_cost += cg.weights()[v];
    } else {
      relabel[v] = static_cast<uint32_t>(inst.live.size());
      inst.live.push_back(v);
      inst.weights.push_back(cg.weights()[v]);
    }
  }
  inst.graph = SimpleGraph(inst.live.size());
  for (const auto& [a, b] : cg.edges()) {
    // Minimality guarantees neither endpoint is self-inconsistent.
    inst.graph.AddEdge(relabel[a], relabel[b]);
  }
  inst.graph.Normalize();
  for (const auto& he : cg.hyperedges()) {
    std::vector<uint32_t> e;
    for (const uint32_t v : he) e.push_back(relabel[v]);
    std::sort(e.begin(), e.end());
    inst.hyper.push_back(std::move(e));
  }
  if (inst.binary()) inst.lp = FractionalVertexCover(inst.graph, inst.weights);
  return inst;
}

CoveringProblem RepairInstance::ToCovering() const {
  CoveringProblem problem;
  problem.costs = weights;
  for (const auto& [a, b] : graph.edges()) problem.sets.push_back({a, b});
  for (const auto& e : hyper) problem.sets.push_back(e);
  return problem;
}

}  // namespace dbim
