#include "graph/subgraph.h"

#include <algorithm>

#include "graph/local_graph.h"

namespace smr {

Subgraph BuildSubgraph(std::span<const Edge> edges) {
  NodeId max_id = 0;
  for (const Edge& e : edges) max_id = std::max({max_id, e.first, e.second});
  LocalGraphBuilder builder;
  builder.Relabel(edges, edges.empty() ? 0 : max_id + 1);
  return Subgraph{Graph(static_cast<NodeId>(builder.local_to_global().size()),
                        builder.local_edges()),
                  builder.local_to_global()};
}

}  // namespace smr
