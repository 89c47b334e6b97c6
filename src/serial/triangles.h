#ifndef SMR_SERIAL_TRIANGLES_H_
#define SMR_SERIAL_TRIANGLES_H_

#include <cstdint>

#include "graph/graph.h"
#include "graph/local_graph.h"
#include "graph/node_order.h"
#include "mapreduce/instance_sink.h"
#include "util/cost_model.h"

namespace smr {

/// The classic O(m^{3/2}) serial triangle-enumeration algorithm ([18], used
/// by [19] and by Section 2 of the paper): orient every edge by `order`,
/// and for every node u check every pair of out-neighbors for a closing
/// edge. With the nondecreasing-degree order the pair count is O(m^{3/2}).
///
/// Emits each triangle exactly once as the assignment (u, v, w) with
/// u < v < w in `order`. Returns the triangle count.
uint64_t EnumerateTriangles(const Graph& graph, const NodeOrder& order,
                            InstanceSink* sink, CostCounter* cost);

/// The same kernel on a rank-space LocalGraph (a reducer's share): nodes
/// are visited by local id, and the emitted assignment carries the view's
/// ids (global ids for a reducer's share). Emissions and cost counts equal
/// those of the Graph overload on the relabeled share under the projected
/// order.
uint64_t EnumerateTriangles(const LocalGraph& local, InstanceSink* sink,
                            CostCounter* cost);

/// Convenience overload using the degree order.
uint64_t CountTriangles(const Graph& graph);

}  // namespace smr

#endif  // SMR_SERIAL_TRIANGLES_H_
