#include "core/triangle_algorithms.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/local_graph.h"
#include "graph/node_order.h"
#include "mapreduce/job.h"
#include "serial/triangles.h"
#include "util/combinatorics.h"
#include "util/hashing.h"

namespace smr {

namespace {

uint64_t PackTriple(int a, int b, int c, int base) {
  return (static_cast<uint64_t>(a) * base + b) * base + c;
}

// OrderedBucketTriangles and PartitionTriangles key their reducers by the
// combinatorial rank of the (sorted) bucket triple instead of PackTriple:
// their declared key spaces are C(b+2, 3) and C(b, 3), and base-b packing
// is sparse in those ranges — under the engine's partitioned shuffle almost
// every packed key would land beyond the declared space and collapse into
// the last partition, serializing the reduce. Ranks are dense and order
// reducers identically (lexicographically in the triple), so metrics and
// emission order are unchanged. MultiwayJoinTriangles keeps PackTriple: its
// key space *is* b^3 and the packing is already a dense bijection.

uint64_t RankTriple(const std::array<int, 3>& triple, int base) {
  return RankNondecreasing3(triple[0], triple[1], triple[2], base);
}

std::array<int, 3> UnrankTriple(uint64_t key, int base) {
  const std::vector<int> seq = UnrankNondecreasing(key, base, 3);
  return {seq[0], seq[1], seq[2]};
}

uint64_t RankStrictTriple(const std::array<int, 3>& triple, int base) {
  return RankSubset3(triple[0], triple[1], triple[2], base);
}

std::array<int, 3> UnrankStrictTriple(uint64_t key, int base) {
  const std::vector<int> seq = UnrankSubset(key, base, 3);
  return {seq[0], seq[1], seq[2]};
}

/// Value shipped by the multiway-join mapper: the edge plus the roles
/// (XY=1, YZ=2, XZ=4) it plays at the receiving reducer. Overlapping roles
/// at the same reducer are merged into one key-value pair (footnote 1).
struct RoleEdge {
  NodeId u;
  NodeId v;
  uint8_t roles;
};

}  // namespace

MapReduceMetrics MultiwayJoinTriangles(const Graph& graph, int buckets,
                                       uint64_t seed, InstanceSink* sink,
                                       const ExecutionPolicy& policy,
                                       JobMetrics* job) {
  if (buckets < 1) throw std::invalid_argument("buckets must be >= 1");
  const BucketHasher hasher(buckets, seed);
  const uint64_t key_space = static_cast<uint64_t>(buckets) * buckets * buckets;

  auto map_fn = [&](const Edge& edge, Emitter<RoleEdge>* out) {
    const auto [u, v] = edge;  // u < v by Graph's canonical storage
    const int hu = hasher.Bucket(u);
    const int hv = hasher.Bucket(v);
    std::unordered_map<uint64_t, uint8_t> roles_by_key;
    for (int z = 0; z < buckets; ++z) {
      roles_by_key[PackTriple(hu, hv, z, buckets)] |= 1;  // as E(X,Y)
    }
    for (int x = 0; x < buckets; ++x) {
      roles_by_key[PackTriple(x, hu, hv, buckets)] |= 2;  // as E(Y,Z)
    }
    for (int y = 0; y < buckets; ++y) {
      roles_by_key[PackTriple(hu, y, hv, buckets)] |= 4;  // as E(X,Z)
    }
    for (const auto& [key, roles] : roles_by_key) {
      out->Emit(key, RoleEdge{u, v, roles});
    }
  };

  auto reduce_fn = [&](uint64_t /*key*/, std::span<const RoleEdge> values,
                       ReduceContext* context) {
    // R_XY join R_YZ join R_XZ with shared middle / outer variables.
    std::unordered_map<uint64_t, std::vector<NodeId>> yz_by_first;
    std::unordered_set<uint64_t, IdHash> xz;
    for (const RoleEdge& value : values) {
      ++context->cost->edges_scanned;
      if (value.roles & 2) yz_by_first[value.u].push_back(value.v);
      if (value.roles & 4) xz.insert(PackPair(value.u, value.v));
    }
    for (const RoleEdge& value : values) {
      if (!(value.roles & 1)) continue;
      const auto it = yz_by_first.find(value.v);
      if (it == yz_by_first.end()) continue;
      for (NodeId w : it->second) {
        ++context->cost->candidates;
        ++context->cost->index_probes;
        if (xz.count(PackPair(value.u, w)) > 0) {
          const std::array<NodeId, 3> assignment = {value.u, value.v, w};
          context->EmitInstance(assignment);
        }
      }
    }
  };

  JobDriver driver(policy);
  const RoundSpec<Edge, RoleEdge> round{"multiway-join", map_fn, reduce_fn,
                                        key_space, {}};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

MapReduceMetrics OrderedBucketTriangles(const Graph& graph, int buckets,
                                        uint64_t seed, InstanceSink* sink,
                                        const ExecutionPolicy& policy,
                                        JobMetrics* job) {
  if (buckets < 1) throw std::invalid_argument("buckets must be >= 1");
  const BucketHasher hasher(buckets, seed);
  const NodeOrder order = NodeOrder::ByBucket(graph.num_nodes(), hasher);
  const uint64_t key_space = Binomial(buckets + 2, 3);

  auto map_fn = [&](const Edge& edge, Emitter<Edge>* out) {
    const Edge oriented = order.Orient(edge);
    const int i = hasher.Bucket(oriented.first);
    const int j = hasher.Bucket(oriented.second);  // i <= j by the order
    for (int w = 0; w < buckets; ++w) {
      std::array<int, 3> triple = {i, j, w};
      std::sort(triple.begin(), triple.end());
      out->Emit(RankTriple(triple, buckets), oriented);
    }
  };

  LocalGraphBuilderPool builders;
  auto reduce_fn = [&](uint64_t key, std::span<const Edge> values,
                       ReduceContext* context) {
    const std::array<int, 3> triple = UnrankTriple(key, buckets);
    context->cost->edges_scanned += values.size();
    ReduceFilterSink keep_own(
        [&](std::span<const NodeId> global) {
          // Keep only triangles whose sorted bucket triple is this
          // reducer's (other reducers see the same triangle's edges but
          // skip it).
          std::array<int, 3> got = {hasher.Bucket(global[0]),
                                    hasher.Bucket(global[1]),
                                    hasher.Bucket(global[2])};
          std::sort(got.begin(), got.end());
          return got == triple;
        },
        context);
    EnumerateTriangles(builders.Borrow()->Build(values, order), &keep_own,
                       context->cost);
  };

  JobDriver driver(policy);
  const RoundSpec<Edge, Edge> round{"ordered-buckets", map_fn, reduce_fn,
                                    key_space, {}};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

MapReduceMetrics PartitionTriangles(const Graph& graph, int num_groups,
                                    uint64_t seed, InstanceSink* sink,
                                    const ExecutionPolicy& policy,
                                    JobMetrics* job) {
  if (num_groups < 3) throw std::invalid_argument("Partition needs b >= 3");
  const int b = num_groups;
  const BucketHasher hasher(b, seed);
  const uint64_t key_space = Binomial(b, 3);

  auto map_fn = [&](const Edge& edge, Emitter<Edge>* out) {
    int i = hasher.Bucket(edge.first);
    int j = hasher.Bucket(edge.second);
    if (i > j) std::swap(i, j);
    if (i == j) {
      // Both endpoints in group i: send to every triple containing i.
      for (int x = 0; x < b; ++x) {
        if (x == i) continue;
        for (int y = x + 1; y < b; ++y) {
          if (y == i) continue;
          std::array<int, 3> triple = {i, x, y};
          std::sort(triple.begin(), triple.end());
          out->Emit(RankStrictTriple(triple, b), edge);
        }
      }
    } else {
      for (int w = 0; w < b; ++w) {
        if (w == i || w == j) continue;
        std::array<int, 3> triple = {i, j, w};
        std::sort(triple.begin(), triple.end());
        out->Emit(RankStrictTriple(triple, b), edge);
      }
    }
  };

  // Identity order on global ids (hence on every reducer's local ids).
  const NodeOrder identity = NodeOrder::Identity(graph.num_nodes());
  LocalGraphBuilderPool builders;
  auto reduce_fn = [&](uint64_t key, std::span<const Edge> values,
                       ReduceContext* context) {
    const std::array<int, 3> own = UnrankStrictTriple(key, b);
    context->cost->edges_scanned += values.size();
    ReduceFilterSink keep_canonical(
        [&](std::span<const NodeId> global) {
          // De-duplication: the triangle's distinct groups H are contained
          // in several reducer triples; only the canonical one (H padded
          // with the smallest unused group ids) emits it.
          std::array<int, 3> groups = {hasher.Bucket(global[0]),
                                       hasher.Bucket(global[1]),
                                       hasher.Bucket(global[2])};
          std::sort(groups.begin(), groups.end());
          std::array<int, 3> canonical{};
          size_t size = 0;
          for (int g : groups) {
            if (size == 0 || canonical[size - 1] != g) canonical[size++] = g;
          }
          for (int candidate = 0; size < 3 && candidate < b; ++candidate) {
            bool present = false;
            for (size_t i = 0; i < size; ++i) {
              present |= canonical[i] == candidate;
            }
            if (!present) canonical[size++] = candidate;
          }
          std::sort(canonical.begin(), canonical.end());
          return canonical == own;
        },
        context);
    EnumerateTriangles(builders.Borrow()->Build(values, identity),
                       &keep_canonical, context->cost);
  };

  JobDriver driver(policy);
  const RoundSpec<Edge, Edge> round{"partition", map_fn, reduce_fn, key_space,
                                    {}};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

}  // namespace smr
