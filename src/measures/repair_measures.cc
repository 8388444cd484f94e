#include "measures/repair_measures.h"

#include <algorithm>

#include "common/check.h"
#include "graph/vertex_cover.h"
#include "lp/covering.h"
#include "measures/repair_instance.h"

namespace dbim {

namespace {

// An optimal integral cover of the instance's live vertices: value and
// membership per live index.
std::pair<double, std::vector<bool>> SolveCover(const RepairInstance& inst,
                                                double deadline_seconds) {
  if (inst.binary()) {
    VertexCoverOptions options;
    options.deadline_seconds = deadline_seconds;
    VertexCoverResult cover =
        MinWeightVertexCover(inst.graph, inst.weights, inst.lp, options);
    return {cover.value, std::move(cover.in_cover)};
  }
  CoveringOptions options;
  options.deadline_seconds = deadline_seconds;
  CoveringResult cover = SolveCoveringIlp(inst.ToCovering(), options);
  return {cover.value, std::move(cover.chosen)};
}

LpSolution SolveRelaxation(const RepairInstance& inst) {
  LpSolution lp = SolveCoveringLpRelaxation(inst.ToCovering());
  DBIM_CHECK_MSG(lp.status == LpStatus::kOptimal,
                 "covering LP unsolved (status %d)",
                 static_cast<int>(lp.status));
  return lp;
}

}  // namespace

double MinRepairMeasure::Evaluate(MeasureContext& context) const {
  const RepairInstance& inst = context.repair_instance();
  return inst.forced_cost +
         SolveCover(inst, options_.deadline_seconds).first;
}

std::vector<FactId> MinRepairMeasure::OptimalRepair(
    MeasureContext& context) const {
  const ConflictGraph& cg = context.conflict_graph();
  const RepairInstance& inst = context.repair_instance();
  std::vector<FactId> repair;
  for (uint32_t v = 0; v < cg.num_vertices(); ++v) {
    if (cg.self_inconsistent()[v]) repair.push_back(cg.fact_of(v));
  }
  const std::vector<bool> chosen =
      SolveCover(inst, options_.deadline_seconds).second;
  for (uint32_t i = 0; i < inst.live.size(); ++i) {
    if (chosen[i]) repair.push_back(cg.fact_of(inst.live[i]));
  }
  std::sort(repair.begin(), repair.end());
  return repair;
}

double LinRepairMeasure::Evaluate(MeasureContext& context) const {
  const RepairInstance& inst = context.repair_instance();
  if (inst.binary()) return inst.forced_cost + inst.lp.value;
  return inst.forced_cost + SolveRelaxation(inst).objective;
}

std::vector<std::pair<FactId, double>> LinRepairMeasure::FractionalSolution(
    MeasureContext& context) const {
  const ConflictGraph& cg = context.conflict_graph();
  const RepairInstance& inst = context.repair_instance();
  std::vector<std::pair<FactId, double>> solution;
  for (uint32_t v = 0; v < cg.num_vertices(); ++v) {
    if (cg.self_inconsistent()[v]) {
      solution.emplace_back(cg.fact_of(v), 1.0);
    }
  }
  const std::vector<double> x =
      inst.binary() ? inst.lp.x : SolveRelaxation(inst).x;
  for (uint32_t i = 0; i < inst.live.size(); ++i) {
    solution.emplace_back(cg.fact_of(inst.live[i]), x[i]);
  }
  std::sort(solution.begin(), solution.end());
  return solution;
}

}  // namespace dbim
