#ifndef DBIM_GRAPH_VERTEX_COVER_H_
#define DBIM_GRAPH_VERTEX_COVER_H_

#include <cstddef>
#include <vector>

#include "common/timer.h"
#include "graph/fractional_vc.h"
#include "graph/graph.h"

namespace dbim {

struct VertexCoverOptions {
  /// Wall-clock budget; expired searches return the best cover found so far
  /// with `optimal == false`. 0 disables the deadline.
  double deadline_seconds = 0.0;
};

struct VertexCoverResult {
  /// Total weight of the returned cover.
  double value = 0.0;

  /// Cover membership per vertex.
  std::vector<bool> in_cover;

  /// Whether the value is proven optimal.
  bool optimal = true;

  /// Branch-and-bound nodes explored (diagnostics / ablation bench).
  size_t bb_nodes = 0;
};

/// Exact minimum weighted vertex cover. This is the paper's I_R for denial
/// constraints whose minimal inconsistent subsets all have size two (FDs and
/// all the experiment DC sets), on the conflict graph.
///
/// Pipeline: one fractional LP over the whole graph, then Nemhauser–Trotter
/// kernelization on its half-integral optimum (vertices at 1 are in the
/// cover, vertices at 0 are not, and only the x = 1/2 kernel is searched).
/// The kernel alone is split into connected components, bucketed in one
/// pass over the edges; each component runs branch & bound on a
/// maximum-degree vertex with the fractional LP as lower bound and a greedy
/// cover as incumbent. The deadline is shared across components.
VertexCoverResult MinWeightVertexCover(const SimpleGraph& g,
                                       const std::vector<double>& weights,
                                       const VertexCoverOptions& options = {});

/// The same, kernelizing on `lp`, a half-integral optimum of the fractional
/// cover LP of (g, weights) as FractionalVertexCover returns it — so a
/// caller that needs the LP anyway (I_lin_R) pays for one max-flow, not two.
VertexCoverResult MinWeightVertexCover(const SimpleGraph& g,
                                       const std::vector<double>& weights,
                                       const FractionalVcResult& lp,
                                       const VertexCoverOptions& options = {});

}  // namespace dbim

#endif  // DBIM_GRAPH_VERTEX_COVER_H_
