#include "serial/triangles.h"

#include <array>

#include "graph/intersect.h"
#include "util/arena.h"

namespace smr {

namespace {

/// The successor-intersection kernel both overloads run. Nodes are visited
/// by id, u = 0..n-1; `rank_of(u)` is u's rank, `successors(r)` the
/// ascending successor ranks of rank r, and `id_of(r)` the id emitted for
/// rank r.
template <typename RankOf, typename SuccessorsOf, typename IdOf>
uint64_t SuccessorIntersectionTriangles(NodeId n, size_t max_out_degree,
                                        RankOf rank_of,
                                        SuccessorsOf successors, IdOf id_of,
                                        InstanceSink* sink,
                                        CostCounter* cost) {
  Arena arena;
  NodeId* const matches =
      arena.AllocateArray<NodeId>(max_out_degree + kIntersectSlack);
  uint64_t found = 0;
  for (NodeId u = 0; u < n; ++u) {
    const uint32_t ru = rank_of(u);
    const std::span<const NodeId> succ = successors(ru);
    const size_t deg = succ.size();
    if (cost != nullptr) cost->edges_scanned += deg;
    if (deg < 2) continue;
    uint64_t matched = 0;
    for (size_t i = 0; i + 1 < deg; ++i) {
      // All closing edges of the wedges (u, s_i, s_j), j > i, in one
      // intersection: since i < j means s_i precedes s_j in the order,
      // (s_i, s_j) is an edge iff rank(s_j) appears among s_i's successor
      // ranks. Both spans ascend, so the matches come out in ascending j —
      // the same order the per-pair probe loop visited them in.
      const size_t count =
          IntersectInto(succ.subspan(i + 1), successors(succ[i]), matches);
      matched += count;
      if (sink != nullptr) {
        const NodeId v = id_of(succ[i]);
        for (size_t k = 0; k < count; ++k) {
          // Successors are sorted by rank, so (u, v, w) is the order-sorted
          // triangle.
          const std::array<NodeId, 3> assignment = {id_of(ru), v,
                                                    id_of(matches[k])};
          sink->Emit(assignment);
        }
      }
    }
    found += matched;
    if (cost != nullptr) {
      // Identical totals to the per-pair probe loop this replaces: each of
      // the deg*(deg-1)/2 successor pairs was one candidate and one index
      // probe, and every match was an output.
      const uint64_t pairs = static_cast<uint64_t>(deg) * (deg - 1) / 2;
      cost->candidates += pairs;
      cost->index_probes += pairs;
      cost->outputs += matched;
    }
  }
  return found;
}

}  // namespace

uint64_t EnumerateTriangles(const Graph& graph, const NodeOrder& order,
                            InstanceSink* sink, CostCounter* cost) {
  const RankedAdjacency ranked(graph, order);
  return SuccessorIntersectionTriangles(
      graph.num_nodes(), ranked.MaxOutDegree(),
      [&order](NodeId u) { return order.Rank(u); },
      [&ranked](uint32_t r) { return ranked.SuccessorRanks(r); },
      [&ranked](uint32_t r) { return ranked.NodeOfRank(r); }, sink, cost);
}

uint64_t EnumerateTriangles(const LocalGraph& local, InstanceSink* sink,
                            CostCounter* cost) {
  return SuccessorIntersectionTriangles(
      local.num_nodes, local.max_list,
      [&local](NodeId u) { return local.rank_of_local[u]; },
      [&local](uint32_t r) { return local.Successors(r); },
      [&local](uint32_t r) { return local.id_of_rank[r]; }, sink, cost);
}

uint64_t CountTriangles(const Graph& graph) {
  return EnumerateTriangles(graph, NodeOrder::ByDegree(graph), nullptr,
                            nullptr);
}

}  // namespace smr
