#ifndef SMR_GRAPH_SUBGRAPH_H_
#define SMR_GRAPH_SUBGRAPH_H_

#include <span>
#include <vector>

#include "graph/graph.h"

namespace smr {

/// A compact relabeled graph built from the edges delivered to one reducer:
/// local node ids are dense and `local_to_global` maps them back.
///
/// There can be ~b^p reducers, so no reducer may allocate O(n) state for
/// the whole data graph. The only O(n) structure in the reduce path is the
/// relabeling map of graph/local_graph.h's LocalGraphBuilder, and it is
/// per-worker scratch: allocated once, when a worker's first reducer
/// borrows a builder, and reused by every later one. The reducers
/// themselves run on that builder's rank-space LocalGraph rather than on a
/// Subgraph; a standalone Graph of a reducer's share remains for
/// inspection and for measuring the relabel step.
struct Subgraph {
  Graph graph;
  std::vector<NodeId> local_to_global;
};

/// Builds the relabeled subgraph spanned by `edges` (global ids).
/// `local_to_global` is sorted ascending, so identity ordering of local ids
/// coincides with identity ordering of global ids. Relabels through
/// LocalGraphBuilder::Relabel, whose map is sized by the largest global id
/// in `edges`.
Subgraph BuildSubgraph(std::span<const Edge> edges);

}  // namespace smr

#endif  // SMR_GRAPH_SUBGRAPH_H_
