#include "graph/local_graph.h"

#include <algorithm>
#include <stdexcept>

namespace smr {

void LocalGraphBuilder::Relabel(std::span<const Edge> edges,
                                NodeId num_global_nodes) {
  if (stamp_.size() < num_global_nodes) {
    stamp_.resize(num_global_nodes, 0);
    slot_.resize(num_global_nodes);
  }
  if (++epoch_ == 0) {  // wrapped: stale stamps could alias the new epoch
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  // Collect the distinct endpoints; only they are sorted, never the 2m
  // endpoint occurrences.
  local_to_global_.clear();
  for (const Edge& e : edges) {
    if (e.first == e.second) {
      throw std::invalid_argument("self-loop in edge list");
    }
    if (e.first >= num_global_nodes || e.second >= num_global_nodes) {
      throw std::invalid_argument("edge endpoint out of range");
    }
    for (const NodeId g : {e.first, e.second}) {
      if (stamp_[g] != epoch_) {
        stamp_[g] = epoch_;
        local_to_global_.push_back(g);
      }
    }
  }
  std::sort(local_to_global_.begin(), local_to_global_.end());
  for (size_t i = 0; i < local_to_global_.size(); ++i) {
    slot_[local_to_global_[i]] = static_cast<NodeId>(i);
  }
  // Local ids ascend with global ids, so an input already in canonical
  // global order (what every edge-shipping mapper emits) stays sorted
  // after relabeling and skips the sort.
  local_edges_.clear();
  bool sorted = true;
  for (const Edge& e : edges) {
    NodeId a = slot_[e.first];
    NodeId b = slot_[e.second];
    if (a > b) std::swap(a, b);
    if (sorted && !local_edges_.empty() && Edge{a, b} < local_edges_.back()) {
      sorted = false;
    }
    local_edges_.emplace_back(a, b);
  }
  if (!sorted) std::sort(local_edges_.begin(), local_edges_.end());
  local_edges_.erase(std::unique(local_edges_.begin(), local_edges_.end()),
                     local_edges_.end());
}

const LocalGraph& LocalGraphBuilder::Build(std::span<const Edge> edges,
                                           const NodeOrder& order) {
  Relabel(edges, order.num_nodes());
  // Local ranks: the local ids sorted by global rank. Packing (rank, id)
  // into one word keeps this a plain integer sort over the distinct nodes.
  const size_t n = local_to_global_.size();
  rank_keys_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    rank_keys_[i] =
        (static_cast<uint64_t>(order.Rank(local_to_global_[i])) << 32) | i;
  }
  if (!std::is_sorted(rank_keys_.begin(), rank_keys_.end())) {
    std::sort(rank_keys_.begin(), rank_keys_.end());
  }
  rank_of_local_.resize(n);
  id_of_rank_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    const auto local = static_cast<NodeId>(rank_keys_[r] & 0xffffffffu);
    rank_of_local_[local] = static_cast<uint32_t>(r);
    id_of_rank_[r] = local_to_global_[local];
  }
  FillAdjacency(local_edges_);
  return view_;
}

const LocalGraph& LocalGraphBuilder::Build(const Graph& graph,
                                           const NodeOrder& order) {
  const NodeId n = graph.num_nodes();
  rank_of_local_.resize(n);
  id_of_rank_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    rank_of_local_[u] = order.Rank(u);
    id_of_rank_[order.Rank(u)] = u;
  }
  FillAdjacency(graph.edges());
  return view_;
}

void LocalGraphBuilder::FillAdjacency(std::span<const Edge> local_edges) {
  const size_t n = rank_of_local_.size();
  const size_t m = local_edges.size();
  oriented_edges_.resize(m);
  successor_offsets_.assign(n + 1, 0);
  predecessor_offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < m; ++i) {
    const uint32_t a = rank_of_local_[local_edges[i].first];
    const uint32_t b = rank_of_local_[local_edges[i].second];
    oriented_edges_[i] = a < b ? Edge{a, b} : Edge{b, a};
    ++successor_offsets_[oriented_edges_[i].first + 1];
    ++predecessor_offsets_[oriented_edges_[i].second + 1];
  }
  size_t max_list = 0;
  for (size_t r = 0; r < n; ++r) {
    max_list = std::max({max_list, successor_offsets_[r + 1],
                         predecessor_offsets_[r + 1]});
    successor_offsets_[r + 1] += successor_offsets_[r];
    predecessor_offsets_[r + 1] += predecessor_offsets_[r];
  }
  // Three counting passes and no per-list sort. (1) Scatter each edge's
  // smaller rank into the larger rank's predecessor slot, in edge order.
  // (2) Walk those lists by ascending larger rank, appending it to the
  // smaller rank's successor list: every successor list comes out
  // ascending. (3) Walk the successor lists by ascending smaller rank the
  // same way, rewriting the predecessor lists ascending.
  successor_ranks_.resize(m);
  predecessor_ranks_.resize(m);
  cursor_.assign(predecessor_offsets_.begin(), predecessor_offsets_.end() - 1);
  for (const Edge& e : oriented_edges_) {
    predecessor_ranks_[cursor_[e.second]++] = e.first;
  }
  cursor_.assign(successor_offsets_.begin(), successor_offsets_.end() - 1);
  for (size_t hi = 0; hi < n; ++hi) {
    for (size_t i = predecessor_offsets_[hi]; i < predecessor_offsets_[hi + 1];
         ++i) {
      successor_ranks_[cursor_[predecessor_ranks_[i]]++] =
          static_cast<NodeId>(hi);
    }
  }
  cursor_.assign(predecessor_offsets_.begin(), predecessor_offsets_.end() - 1);
  for (size_t lo = 0; lo < n; ++lo) {
    for (size_t i = successor_offsets_[lo]; i < successor_offsets_[lo + 1];
         ++i) {
      predecessor_ranks_[cursor_[successor_ranks_[i]]++] =
          static_cast<NodeId>(lo);
    }
  }
  view_ = LocalGraph{static_cast<NodeId>(n),
                     rank_of_local_,
                     id_of_rank_,
                     oriented_edges_,
                     successor_offsets_,
                     successor_ranks_,
                     predecessor_offsets_,
                     predecessor_ranks_,
                     max_list};
}

LocalGraphBuilderPool::Lease::~Lease() {
  const std::lock_guard<std::mutex> lock(pool_->mutex_);
  pool_->idle_.push_back(std::move(builder_));
}

LocalGraphBuilderPool::Lease LocalGraphBuilderPool::Borrow() {
  std::unique_ptr<LocalGraphBuilder> builder;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!idle_.empty()) {
      builder = std::move(idle_.back());
      idle_.pop_back();
    }
  }
  if (builder == nullptr) builder = std::make_unique<LocalGraphBuilder>();
  return Lease(this, std::move(builder));
}

}  // namespace smr
