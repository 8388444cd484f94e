#ifndef DBIM_MEASURES_REPAIR_INSTANCE_H_
#define DBIM_MEASURES_REPAIR_INSTANCE_H_

#include <cstdint>
#include <vector>

#include "graph/fractional_vc.h"
#include "graph/graph.h"
#include "lp/covering.h"
#include "violations/conflict_graph.h"

namespace dbim {

/// The covering problem behind I_R and I_lin_R (the ILP of the paper's
/// Figure 2 and its relaxation), derived once from a conflict graph and
/// shared by both measures through MeasureContext::repair_instance().
///
/// Self-inconsistent facts are forced deletions: their singleton witness
/// pins x = 1 in every cover, so they contribute `forced_cost` and drop out.
/// The remaining problematic facts are relabelled 0..k-1 (`live` maps back
/// to conflict-graph vertices); binary witnesses form `graph`, larger ones
/// `hyper`. When every witness is binary, `lp` holds the whole-graph
/// fractional vertex cover: I_lin_R is `forced_cost + lp.value`, and I_R
/// kernelizes on the same half-integral optimum (Nemhauser–Trotter), so one
/// max-flow serves both.
struct RepairInstance {
  static RepairInstance Build(const ConflictGraph& cg);

  bool binary() const { return hyper.empty(); }

  /// The covering ILP over the live vertices (binary and hyper witnesses).
  CoveringProblem ToCovering() const;

  double forced_cost = 0.0;
  std::vector<uint32_t> live;                // live index -> cg vertex
  std::vector<double> weights;               // per live vertex
  SimpleGraph graph{0};                      // binary witnesses
  std::vector<std::vector<uint32_t>> hyper;  // size >= 3 witnesses, sorted
  FractionalVcResult lp;                     // set iff binary()
};

}  // namespace dbim

#endif  // DBIM_MEASURES_REPAIR_INSTANCE_H_
