// Emission-order and reducer-cost goldens for every strategy whose reducers
// build a local graph and run a join on it: bucket-oriented (triangle and
// square), generalized Partition, ordered buckets, Partition triangles and
// the labeled bucket strategy, on the Fig. 1 and Fig. 2 data graphs.
//
// The Fig. 1/Fig. 2 goldens pin counts and communication; these pin what a
// reducer-kernel rewrite could silently move instead: the exact sequence of
// sink emissions (as a 64-bit FNV-1a digest over every assignment, in
// order) and every CostCounter field of the instrumented reduce cost. The
// values were captured from the draw-then-probe reducer kernel before it
// was replaced by the rank-space intersection join, and must never be
// re-pinned to make a kernel change pass.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/bucket_oriented.h"
#include "core/triangle_algorithms.h"
#include "cq/cq_generation.h"
#include "graph/generators.h"
#include "labeled/labeled_enumeration.h"
#include "labeled/labeled_graph.h"
#include "mapreduce/execution_policy.h"

namespace smr {
namespace {

/// Folds every emitted assignment, in emission order, into one digest.
class DigestSink : public InstanceSink {
 public:
  void Emit(std::span<const NodeId> assignment) override {
    Mix(assignment.size());
    for (NodeId node : assignment) Mix(node);
    ++count_;
  }

  uint64_t digest() const { return digest_; }
  uint64_t count() const { return count_; }

 private:
  void Mix(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      digest_ ^= (value >> (8 * byte)) & 0xff;
      digest_ *= 1099511628211ull;
    }
  }

  uint64_t digest_ = 14695981039346656037ull;
  uint64_t count_ = 0;
};

struct Pinned {
  uint64_t digest;
  uint64_t outputs;
  CostCounter cost;
};

using Strategy = std::function<MapReduceMetrics(InstanceSink*,
                                                const ExecutionPolicy&)>;

/// Runs the strategy serially and on 4 threads; both must match the pin
/// (the engine replays reducer output in key order, so the emission
/// sequence is thread-count independent).
void ExpectPinned(const Strategy& run, const Pinned& want) {
  for (const ExecutionPolicy& policy :
       {ExecutionPolicy::Serial(), ExecutionPolicy::WithThreads(4)}) {
    DigestSink sink;
    const MapReduceMetrics metrics = run(&sink, policy);
    EXPECT_EQ(sink.digest(), want.digest);
    EXPECT_EQ(sink.count(), want.outputs);
    EXPECT_EQ(metrics.outputs, want.outputs);
    EXPECT_EQ(metrics.reduce_cost.edges_scanned, want.cost.edges_scanned);
    EXPECT_EQ(metrics.reduce_cost.candidates, want.cost.candidates);
    EXPECT_EQ(metrics.reduce_cost.index_probes, want.cost.index_probes);
    EXPECT_EQ(metrics.reduce_cost.outputs, want.cost.outputs);
  }
}

const Graph& Fig1() {
  static const Graph g = ErdosRenyi(2000, 20000, 42);
  return g;
}

const Graph& Fig2() {
  static const Graph g = ErdosRenyi(3000, 36000, 7);
  return g;
}

/// The Fig. graph with a deterministic two-valued label per edge.
LabeledGraph Labeled(const Graph& g) {
  std::vector<LabeledEdge> edges;
  edges.reserve(g.num_edges());
  for (const auto& [u, v] : g.edges()) {
    edges.push_back({u, v, static_cast<EdgeLabel>(((u ^ (3u * v)) >> 1) & 1)});
  }
  return LabeledGraph(g.num_nodes(), std::move(edges));
}

Strategy Bucket(const Graph& g, const SampleGraph& pattern, int buckets,
                uint64_t seed) {
  return [&g, pattern, buckets, seed](InstanceSink* sink,
                                      const ExecutionPolicy& policy) {
    const auto cqs = CqsForSample(pattern);
    return BucketOrientedEnumerate(pattern, cqs, g, buckets, seed, sink,
                                   policy);
  };
}

Strategy GeneralizedPartition(const Graph& g, const SampleGraph& pattern,
                              int groups, uint64_t seed) {
  return [&g, pattern, groups, seed](InstanceSink* sink,
                                     const ExecutionPolicy& policy) {
    const auto cqs = CqsForSample(pattern);
    return GeneralizedPartitionEnumerate(pattern, cqs, g, groups, seed, sink,
                                         policy);
  };
}

Strategy LabeledBucket(const Graph& g, int buckets, uint64_t seed) {
  return [&g, buckets, seed](InstanceSink* sink,
                             const ExecutionPolicy& policy) {
    const LabeledSampleGraph pattern(3, {{0, 1, 0}, {1, 2, 0}, {0, 2, 1}});
    return LabeledBucketOrientedEnumerate(pattern, Labeled(g), buckets, seed,
                                          sink, policy);
  };
}

TEST(ReducerKernelGolden, BucketTriangleFig1) {
  ExpectPinned(Bucket(Fig1(), SampleGraph::Triangle(), 8, 1),
               {8490332497183799688ull, 1388u,
                {320000u, 762879u, 601330u, 2937u}});
}

TEST(ReducerKernelGolden, BucketTriangleFig2) {
  ExpectPinned(Bucket(Fig2(), SampleGraph::Triangle(), 8, 3),
               {15687362183391266969ull, 2293u,
                {576000u, 1586691u, 1296146u, 4838u}});
}

TEST(ReducerKernelGolden, BucketSquareFig1) {
  ExpectPinned(Bucket(Fig1(), SampleGraph::Square(), 4, 1),
               {15663310347040517606ull, 19967u,
                {800000u, 30690926u, 23552653u, 73888u}});
}

TEST(ReducerKernelGolden, BucketLollipopFig2) {
  ExpectPinned(Bucket(Fig2(), SampleGraph::Lollipop(), 4, 3),
               {10782177472266734495ull, 165184u,
                {2520000u, 144247476u, 114235662u, 586742u}});
}

TEST(ReducerKernelGolden, GeneralizedPartitionTriangleFig1) {
  ExpectPinned(GeneralizedPartition(Fig1(), SampleGraph::Triangle(), 6, 1),
               {17115739154347937204ull, 1388u,
                {200128u, 769922u, 666538u, 4708u}});
}

TEST(ReducerKernelGolden, GeneralizedPartitionSquareFig2) {
  ExpectPinned(GeneralizedPartition(Fig2(), SampleGraph::Square(), 5, 3),
               {14537053524218113764ull, 41219u,
                {461216u, 45623485u, 39129347u, 125871u}});
}

TEST(ReducerKernelGolden, OrderedBucketFig1) {
  ExpectPinned([](InstanceSink* sink, const ExecutionPolicy& policy) {
                 return OrderedBucketTriangles(Fig1(), 15, 1, sink, policy);
               },
               {6543246050809265536ull, 1388u,
                {600000u, 320000u, 320000u, 2804u}});
}

TEST(ReducerKernelGolden, OrderedBucketFig2) {
  ExpectPinned([](InstanceSink* sink, const ExecutionPolicy& policy) {
                 return OrderedBucketTriangles(Fig2(), 10, 3, sink, policy);
               },
               {16340106072714809085ull, 2293u,
                {720000u, 661676u, 661676u, 4910u}});
}

TEST(ReducerKernelGolden, PartitionTrianglesFig1) {
  ExpectPinned([](InstanceSink* sink, const ExecutionPolicy& policy) {
                 return PartitionTriangles(Fig1(), 15, 1, sink, policy);
               },
               {9760151089377784176ull, 1388u,
                {724048u, 483068u, 483068u, 5992u}});
}

TEST(ReducerKernelGolden, PartitionTrianglesFig2) {
  ExpectPinned([](InstanceSink* sink, const ExecutionPolicy& policy) {
                 return PartitionTriangles(Fig2(), 12, 3, sink, policy);
               },
               {4117433857959577589ull, 2293u,
                {995580u, 1000068u, 1000068u, 9896u}});
}

TEST(ReducerKernelGolden, LabeledBucketFig1) {
  ExpectPinned(LabeledBucket(Fig1(), 6, 1),
               {1142041365451363056ull, 486u,
                {480000u, 1553301u, 1308807u, 4980u}});
}

TEST(ReducerKernelGolden, LabeledBucketFig2) {
  ExpectPinned(LabeledBucket(Fig2(), 6, 3),
               {4069204206812428277ull, 841u,
                {864000u, 3281318u, 2841569u, 8590u}});
}

}  // namespace
}  // namespace smr
