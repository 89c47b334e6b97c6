#ifndef SMR_GRAPH_LOCAL_GRAPH_H_
#define SMR_GRAPH_LOCAL_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/node_order.h"

namespace smr {

/// A reducer's share of the data graph in *rank space*: the read-only view a
/// LocalGraphBuilder produces and the reducer kernels (CqEvaluator,
/// EnumerateTriangles) consume.
///
/// Nodes carry two dense labels. The *local id* numbers the nodes by
/// ascending global id (so identity order on local ids is identity order on
/// global ids); the *rank* numbers them by the global node order restricted
/// to this share. Adjacency is stored by rank, listing neighbor ranks in
/// ascending order, so two lists can be intersected by the vectorized
/// sorted-set kernels of graph/intersect.h directly.
struct LocalGraph {
  NodeId num_nodes = 0;

  /// Local id -> rank.
  std::span<const uint32_t> rank_of_local;
  /// Rank -> the id emitted for that node (the global id for a reducer's
  /// share, the node id for a whole graph).
  std::span<const NodeId> id_of_rank;
  /// Every edge once, as (smaller rank, larger rank), in canonical local-id
  /// edge order ((min, max) local ids, ascending) — the order joins seed in.
  std::span<const Edge> oriented_edges;

  std::span<const size_t> successor_offsets;    // num_nodes + 1 entries
  std::span<const NodeId> successor_ranks;      // rank -> larger ranks
  std::span<const size_t> predecessor_offsets;  // num_nodes + 1 entries
  std::span<const NodeId> predecessor_ranks;    // rank -> smaller ranks

  /// Longest successor or predecessor list: callers size intersection
  /// scratch from this.
  size_t max_list = 0;

  /// Ranks adjacent to `rank` and larger than it, ascending.
  std::span<const NodeId> Successors(uint32_t rank) const {
    return successor_ranks.subspan(
        successor_offsets[rank],
        successor_offsets[rank + 1] - successor_offsets[rank]);
  }

  /// Ranks adjacent to `rank` and smaller than it, ascending.
  std::span<const NodeId> Predecessors(uint32_t rank) const {
    return predecessor_ranks.subspan(
        predecessor_offsets[rank],
        predecessor_offsets[rank + 1] - predecessor_offsets[rank]);
  }
};

/// Builds LocalGraphs. A builder owns every buffer a build needs and keeps
/// their capacity between builds, so one builder per worker (see
/// LocalGraphBuilderPool) serves all of that worker's reducers: after the
/// first few reducers a build allocates nothing. The relabeling map is the
/// one O(global nodes) structure; it is epoch-stamped, so a build touches
/// only the entries of its own nodes and never clears it.
///
/// A view returned by Build stays valid until the builder's next build.
class LocalGraphBuilder {
 public:
  /// The share spanned by `edges` (global ids, any orientation, duplicates
  /// allowed), ranked by `order` — a total order on all global nodes.
  /// Throws std::invalid_argument for a self-loop or an endpoint outside
  /// the order, with the messages Graph's constructor uses.
  const LocalGraph& Build(std::span<const Edge> edges, const NodeOrder& order);

  /// A whole graph ranked by `order`; local ids are the graph's node ids,
  /// isolated nodes included.
  const LocalGraph& Build(const Graph& graph, const NodeOrder& order);

  /// Only the relabeling step of Build: dense local ids for the endpoints of
  /// `edges` (all below `num_global_nodes`) and their canonical local edge
  /// list. Results in local_to_global() and local_edges().
  void Relabel(std::span<const Edge> edges, NodeId num_global_nodes);

  /// Local id -> global id, ascending (after Relabel or the span Build).
  const std::vector<NodeId>& local_to_global() const {
    return local_to_global_;
  }

  /// Canonical (min, max) local edge list, sorted and duplicate-free.
  const std::vector<Edge>& local_edges() const { return local_edges_; }

 private:
  // Orients `local_edges` by rank_of_local_ and fills both CSRs and the view.
  void FillAdjacency(std::span<const Edge> local_edges);

  // Epoch-stamped global -> local map.
  std::vector<uint32_t> stamp_;
  std::vector<NodeId> slot_;
  uint32_t epoch_ = 0;

  std::vector<NodeId> local_to_global_;
  std::vector<Edge> local_edges_;
  std::vector<uint64_t> rank_keys_;
  std::vector<uint32_t> rank_of_local_;
  std::vector<NodeId> id_of_rank_;
  std::vector<Edge> oriented_edges_;
  std::vector<size_t> successor_offsets_;
  std::vector<NodeId> successor_ranks_;
  std::vector<size_t> predecessor_offsets_;
  std::vector<NodeId> predecessor_ranks_;
  std::vector<size_t> cursor_;
  LocalGraph view_;
};

/// Lends builders to the reducers of one job. A reducer borrows a builder
/// for the length of its call, so the job holds at most one builder per
/// worker running its reducers at once, each reused by every reducer a
/// worker runs after the first, and frees them all when the job ends —
/// per-worker scratch costs no memory between jobs. A forked worker
/// borrows from its own copy of the pool.
class LocalGraphBuilderPool {
 public:
  /// A builder on loan; going out of scope returns it to the pool.
  class Lease {
   public:
    Lease(LocalGraphBuilderPool* pool,
          std::unique_ptr<LocalGraphBuilder> builder)
        : pool_(pool), builder_(std::move(builder)) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    LocalGraphBuilder* operator->() const { return builder_.get(); }

   private:
    LocalGraphBuilderPool* pool_;
    std::unique_ptr<LocalGraphBuilder> builder_;
  };

  Lease Borrow();

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<LocalGraphBuilder>> idle_;
};

}  // namespace smr

#endif  // SMR_GRAPH_LOCAL_GRAPH_H_
